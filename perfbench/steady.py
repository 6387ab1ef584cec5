"""Steadiness check: run each workload over several seeds and judge spread.

    python3 perfbench/steady.py --seeds 1-10 [--workloads prep,pretrain,finetune]
        [--sets 1]

Run from the repository root. For every workload and end-to-end metric it
prints the median over seeds and the distance between the first and third
quartile as a share of the median, which must stay below a third of the
metric's bound (setup_s is exempt). With --sets 2 every seed runs twice:
the second set's median must not be worse than the first's by more than
the bound, and each seed's artifact digests must be identical in both
sets, which is the byte-determinism promise. Every run must also report
correct with no failed operation. Exits 1 when any of this does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    """One benchmark run in a child process: (final line, full record,
    wall seconds it took)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench_out" / f"{workload}-s{seed}-t0.json").read_text())
    return result, record, time.perf_counter() - t0


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def worse_by(first: float, second: float, better: str) -> float:
    return (second - first) / first if better == "lower" else (first - second) / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="prep,pretrain,finetune")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    problems: list[str] = []
    summary = []
    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(args.sets):
            runs = {}
            for seed in seeds:
                result, record, took = run_once(workload, seed, seconds)
                runs[seed] = (result, record)
                print(f"{workload} set {set_index} seed {seed} ({took:.0f} s): "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                      + f" host_slowness={record['metrics']['host_slowness']:.3g}",
                      flush=True)
                if not result["correct"] or result["failed"]:
                    problems.append(f"{workload} seed {seed}: {record['failures'][:3]}")
            sets.append(runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, runs in enumerate(sets):
                values = [runs[s][0]["metrics"][name]["value"] for s in seeds]
                median, share = spread(values)
                medians.append(median)
                summary.append({"workload": workload, "set": set_index, "metric": name,
                                "median": median, "iqr_share": share, "bound": bound})
                print(f"  {workload:9s} {name:15s} set {set_index} median {median:12.5g} "
                      f"iqr/median {share:.4f} (bound {bound}, target < {bound / 3:.4f})")
                if name != "setup_s" and share >= bound / 3:
                    problems.append(f"{workload} {name}: spread {share:.4f} not below {bound / 3:.4f}")
            for later in medians[1:]:
                worse = worse_by(medians[0], later, metric["better"])
                if worse > bound:
                    problems.append(f"{workload} {name}: a later set's median is worse by {worse:.3f}")
        for seed in seeds:
            digests = [runs[seed][1]["digests"] for runs in sets]
            if any(d != digests[0] for d in digests[1:]):
                problems.append(f"{workload} seed {seed}: artifact digests differ between sets")
    out = ROOT / ".perfbench_out" / "steady.json"
    out.write_text(json.dumps({"seeds": seeds, "sets": args.sets, "summary": summary,
                               "problems": problems}, indent=1))
    for problem in problems:
        print("PROBLEM", problem)
    print("steady" if not problems else f"{len(problems)} problems", f"(summary in {out})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
