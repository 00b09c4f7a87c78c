"""Run the benchmark once per seed and summarise every metric.

    python3 perfbench/seeds.py --seeds 1-10
    python3 perfbench/seeds.py --seeds 11-20 --trace 1 --workloads cyst-rig
    python3 perfbench/seeds.py --seeds 11-20 --baseline perfbench/BENCH_1.json

Each run is ``perfbench/run.py`` in its own process, one after another. For
each workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, beside the metric's bound from BENCHMARK.json, and flags a
spread above a third of the bound or above the bound. With ``--baseline``
it adds the change of each median against that file and flags a median
that is worse than the baseline's by more than the bound. With ``--out``
it writes the summary as JSON in the same layout, comparisons included.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="summary JSON to compare medians with")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    baseline = json.loads(args.baseline.read_text())["workloads"] if args.baseline else {}
    summary = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "platform": platform.platform(),
        },
        "seeds": args.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        metrics = summarise(results)
        summary["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "metrics": metrics,
        }
        w = summary["workloads"][workload]
        print(f"{workload}: {len(results)} runs, attempted={w['attempted']} "
              f"failed={w['failed']} correct={w['correct']}")
        for name, m in metrics.items():
            line = (f"  {name:42s} median {m['median']:>12.6g} {m['unit']:7s}"
                    f" q1 {m['q1']:>12.6g} q3 {m['q3']:>12.6g} spread {m['spread']:7.2%}")
            bound, better = bounds.get(name, (None, None))
            if bound is not None:
                line += f" bound {bound:.2f}"
                if m["spread"] > bound:
                    line += "  SPREAD > bound"
                elif m["spread"] >= bound / 3:
                    line += "  spread > bound/3"
            base = baseline.get(workload, {}).get("metrics", {}).get(name)
            if base and base["median"]:
                change = m["median"] / base["median"] - 1.0
                m["vs_baseline"] = change
                line += f" vs baseline {change:+.2%}"
                worse = change if better == "lower" else -change
                if bound is not None and worse > bound:
                    line += "  WORSE > bound"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
