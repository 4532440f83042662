#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

From the repository root::

    python3 perfbench/repeat.py --workloads all --seeds 1-10
    python3 perfbench/repeat.py --workloads stream_soak --seeds 1-5 --trace 1

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in ``BENCHMARK.json``; ``--trace 1`` instead reports, per seed, the exact
per-layer counts.  ``--out FILE`` keeps every run's result line, and
``--trajectory LABEL`` appends the medians, quartiles and spreads to
``record.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[1].split(" ", 1)[1])
    # Host times before speed normalisation, as printed beside each metric.
    result["raw"] = {
        words[0]: float(words[words.index("raw") + 1])
        for words in (line.split() for line in lines[:-1])
        if "raw" in words
    }
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser.add_argument("--workloads", default="all", help="comma list or 'all'")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trajectory", metavar="LABEL")
    args = parser.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    results = {}
    summary = {}
    for workload in workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        results[workload] = dict(zip(map(str, seeds), runs))
        failed = sum(run["failed"] for run in runs)
        print(f"{workload}: {len(runs)} runs, failed units {failed}, "
              f"all correct {all(run['correct'] for run in runs)}")
        if args.trace:
            summary[workload] = {}
            for name in sorted(runs[0]["metrics"]):
                values = [run["metrics"][name]["value"] for run in runs]
                summary[workload][name] = {"median": statistics.median(values)}
                print(f"  {name:36s} " + " ".join(f"{v:.6g}" for v in values))
            continue
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median, q1, q3, share = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and share > bound:
                flag = "  OVER BOUND"
            elif bound is not None and share > bound / 3:
                flag = "  over bound/3"
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": share}
            raw = ""
            if name in runs[0]["raw"]:
                raw_share = spread([run["raw"][name] for run in runs])[3]
                summary[workload][name]["raw_spread"] = raw_share
                raw = f"  (raw spread {raw_share:.4f})"
            print(f"  {name:16s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {share:7.4f}  bound {bound}{flag}{raw}")
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    if args.trajectory and summary:
        record_path = HERE / "record.json"
        record = json.loads(record_path.read_text())
        record.setdefault("trajectory", []).append(
            {
                "label": args.trajectory,
                "date": datetime.date.today().isoformat(),
                "seeds": args.seeds,
                "seconds": args.seconds,
                "trace": args.trace,
                "provenance": runs[0]["provenance"],
                "metrics": {
                    workload: {
                        name: {key: round(value, 6) for key, value in stats.items()}
                        for name, stats in metrics.items()
                    }
                    for workload, metrics in summary.items()
                },
            }
        )
        record_path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
