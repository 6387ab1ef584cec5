"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {prep,pretrain,finetune} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. The lines before it report the environment, artifact digests,
failed checks and every metric with its unit. A full record is written to
.perfbench_out/<workload>-s<seed>-t<trace>.json.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("prep", "pretrain", "finetune"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    from perfbench import envinfo

    envinfo.pin_blas_threads()  # before anything imports numpy
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import farsilm
    except ImportError as exc:
        print(f"cannot import farsilm from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(farsilm.__file__).resolve().parent.parent != ROOT / "src":
        print(f"farsilm resolved to {farsilm.__file__}, not this checkout's src/", file=sys.stderr)
        return 2

    from perfbench import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    spec = harness.load_spec(ROOT)
    for line in harness.report_lines(record):
        print(line)
    print(harness.final_line(record, spec), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
