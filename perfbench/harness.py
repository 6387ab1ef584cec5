"""One benchmark run: set-up, the closed loop, checks, metrics, report.

The untraced run (trace 0) sets up ``setup_reps`` times and reports the
median as ``setup_s``, then repeats the workload's operation until the
next one would end more than half an operation past the time budget (and
at least until the latency percentiles have ten samples beyond p90). The traced run (trace 1) sets
up once and alternates one untraced and one traced operation, so the
tracing overhead is measured within one process.

Every time is process CPU time. Untraced operations and set-ups run
inside a ``calibrate.Meter``, and the declared timings are their CPU times
scaled to reference host speed; the run also prints the unscaled twins as
``cpu_*`` and the wall-clock twins as ``wall_*``.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from . import envinfo, tracing
from .calibrate import Meter, Span, stamp
from .workloads import FULL, WORKLOADS, OpResult, Shape

# End-to-end metrics named after each workload's own item, printed in the
# report next to the generic names that BENCHMARK.json declares.
NAMED_UNITS = {
    "pretrain_tokens_per_s": "1/s",
    "mlm_loss_end": "nats",
    "prep_docs_per_s": "1/s",
    "finetune_examples_per_s": "1/s",
    "predict_seqs_per_s": "1/s",
}
TIMING_UNITS = {"setup_s": "s", "items_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_p90": "ms"}
TWIN_UNITS = {f"{clock}_{name}": unit for clock in ("cpu", "wall") for name, unit in TIMING_UNITS.items()}
TWIN_UNITS["host_slowness"] = "ratio"
LATENCY_ALIAS = {"pretrain": "step_ms", "prep": "doc_ms", "finetune": "predict_ms"}

# per-layer metric -> (span name, "sum" of seconds per op or "median_ms" per call)
SPAN_METRICS = {
    "corpus.load_s": ("corpus.load", "sum"),
    "textnorm.normalize_s": ("textnorm.normalize", "sum"),
    "segmenter.segment_s": ("segmenter.segment", "sum"),
    "wordpiece.train_s": ("wordpiece.train", "sum"),
    "wordpiece.encode_s": ("wordpiece.encode", "sum"),
    "pretrain_data.nsp_pairs_s": ("pretrain_data.nsp_pairs", "sum"),
    "pretrain_data.assemble_s": ("pretrain_data.assemble", "sum"),
    "pretrain_data.mask_s": ("pretrain_data.mask", "sum"),
    "pretrain_data.write_s": ("pretrain_data.write", "sum"),
    "pretrain_data.read_s": ("pretrain_data.read", "sum"),
    "pretrain_data.collate_ms": ("pretrain_data.collate", "median_ms"),
    "model.forward_ms": ("model.forward", "median_ms"),
    "model.gradients_ms": ("model.gradients", "median_ms"),
    "training.adam_ms": ("training.adam", "median_ms"),
    "training.save_checkpoint_ms": ("training.save_checkpoint", "median_ms"),
    "training.load_checkpoint_ms": ("training.load_checkpoint", "median_ms"),
    "finetune.sequence_s": ("finetune.sequence", "sum"),
    "finetune.tokens_s": ("finetune.tokens", "sum"),
    "finetune.predict_s": ("finetune.predict", "sum"),
    "metrics.eval_ms": ("metrics.eval", "median_ms"),
}


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _attempt(workload, state, tracer) -> OpResult:
    """One operation; an exception is a failed operation, not a crash."""
    t0 = perf_counter()
    try:
        return workload.op(state, tracer)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return OpResult(wall=perf_counter() - t0, failures=["operation raised"])


def _digest_failures(what: str, digests: list[dict]) -> list[str]:
    """Byte determinism: every repetition produced identical artifacts."""
    first = digests[0]
    return [f"{what} {i}: {name} bytes differ from the first" for i, d in enumerate(digests[1:], 1)
            for name in first if d.get(name) != first[name]]


def _loop(workload, state, seconds: float, min_rounds: int, tracers) -> list[list[OpResult]]:
    """Run one operation per tracer in turn while the next round would end
    less than half a round past the budget."""
    results: list[list[OpResult]] = [[] for _ in tracers]
    start = perf_counter()
    rounds = 0
    while True:
        for tracer, out in zip(tracers, results):
            out.append(_attempt(workload, state, tracer))
        rounds += 1
        typical = sum(statistics.median(r.wall for r in out) for out in results)
        if rounds >= min_rounds and perf_counter() - start + typical / 2 > seconds:
            return results


def _setup(workload, work: Path, seed: int, shape: Shape, reps: int):
    """Set up ``reps`` times: (last state, a Span per rep, digests)."""
    stamps, digests = [], []
    with Meter(workload.setup_reference) as meter:
        for rep in range(reps):
            folder = work / f"setup{rep}"
            folder.mkdir()
            start = stamp()
            state = workload.setup(folder, seed, shape)
            stamps.append((start, stamp()))
            digests.append(state.digests)
    return state, [meter.span(*pair) for pair in stamps], digests


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, shape: Shape = FULL) -> dict:
    """Run one workload and return its record; see run.py for the CLI."""
    workload = WORKLOADS[name]
    spec = load_spec(root)
    out_dir = root / ".perfbench_out"
    (root / ".perfbench_work").mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=root / ".perfbench_work"))
    try:
        state, setup_times, setup_digests = _setup(
            workload, work, seed, shape, 1 if trace else shape.setup_reps
        )
        failures = _digest_failures("set-up", setup_digests)
        if trace:
            tracer = tracing.Tracer(run_id=f"{name}-{seed}")
            plain, traced = _loop(workload, state, seconds, 1, [tracing.NullTracer(), tracer])
            roots = [s.id for s in tracer.spans if s.name == "bench.op"]
            traced_ops = list(zip(roots, traced))
            ops = plain + traced
            metrics = _per_layer(spec, tracer, plain, traced_ops)
            tracer.write_jsonl(out_dir / f"{name}-s{seed}-spans.jsonl")
            failures += _digest_failures("untraced operation", [r.digests for r in plain])
            failures += _digest_failures("traced operation", [r.digests for r in traced])
        else:
            (ops,) = _loop(workload, state, seconds, workload.min_ops(shape), [tracing.NullTracer()])
            failures += _digest_failures("operation", [r.digests for r in ops])
            metrics = _end_to_end(ops, setup_times)
        failed = sum(1 for r in ops if r.failures)
        # a set-up or cross-run digest failure fails the run's last operation
        if failures and not ops[-1].failures:
            failed += 1
        failures += [f"operation {i}: {msg}" for i, r in enumerate(ops) for msg in r.failures]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "shape": dataclasses.asdict(shape),
        "environment": envinfo.environment(root),
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "failures": failures[:50],
        "setup_samples": [dataclasses.asdict(t) for t in setup_times],
        "op_slowness": [r.slowness for r in ops],
        "digests": {"setup": setup_digests[0], "operation": ops[0].digests},
        "metrics": metrics,
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | TWIN_UNITS,
    }
    if not trace:
        metrics["peak_rss_mb"] = peak_mb
        record["named"] = _named(name, ops, metrics, record["error_rate"])
    (out_dir / f"{name}-s{seed}-t{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def _timings(latencies_s, rates, setup_s) -> dict:
    return {
        "setup_s": statistics.median(setup_s),
        "items_per_s": statistics.median(rates or [0.0]),
        "latency_ms_p50": percentile(latencies_s, 50) * 1e3,
        "latency_ms_p90": percentile(latencies_s, 90) * 1e3,
    }


def _end_to_end(ops: list[OpResult], setup_times: list[Span]) -> dict:
    """The declared timings, scaled to reference host speed, with their
    unscaled (cpu_*) and wall-clock (wall_*) twins."""
    good = [r for r in ops if not r.failures] or ops
    spans = [r for r in good if r.items_span]
    out = {}
    for prefix, clock in (("", "scaled"), ("cpu_", "cpu"), ("wall_", "wall")):
        timings = _timings(
            [getattr(x, clock) for r in good for x in r.latencies],
            [r.items / getattr(r.items_span, clock) for r in spans],
            [getattr(t, clock) for t in setup_times],
        )
        out.update({prefix + key: value for key, value in timings.items()})
    out.update({
        "host_slowness": statistics.median(r.slowness for r in good),
        "setup_samples": len(setup_times),
        "latency_samples": sum(len(r.latencies) for r in good),
        "ops": len(good),
    })
    return out


def _named(name: str, ops: list[OpResult], metrics: dict, error_rate: float) -> dict:
    """The workload's own names for its end-to-end metrics, each with
    (value, unit, sample count)."""
    good = [r for r in ops if not r.failures] or ops
    alias = LATENCY_ALIAS[name]
    out = {
        "setup_s": (metrics["setup_s"], "s", metrics["setup_samples"]),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", 1),
        "error_rate": (error_rate, "ratio", len(ops)),
        f"{alias}_p50": (metrics["latency_ms_p50"], "ms", metrics["latency_samples"]),
        f"{alias}_p90": (metrics["latency_ms_p90"], "ms", metrics["latency_samples"]),
    }
    for key in NAMED_UNITS:
        values = [r.named[key] for r in good if key in r.named]
        if values:
            out[key] = (statistics.median(values), NAMED_UNITS[key], len(values))
    return out


def _per_layer(spec, tracer: tracing.Tracer, plain: list[OpResult], traced_ops) -> dict:
    metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
    per_op_sums: dict[str, list[float]] = {}
    per_call: dict[str, list[float]] = {}
    accounting: list[dict[str, float]] = []
    op_times, probes = [], []
    for root_id, result in traced_ops:
        spans = tracer.subtree(root_id)
        durations = tracing.by_name(spans)
        for span_name, values in durations.items():
            per_op_sums.setdefault(span_name, []).append(sum(values))
            per_call.setdefault(span_name, []).extend(values)
        accounting.append(tracing.layer_accounting(spans))
        op_times.append(tracer.spans[root_id].duration)
        probes.append(sum(durations.get("bench.probe", [0.0])))
    for metric, (span_name, kind) in SPAN_METRICS.items():
        if span_name in per_call:
            metrics[metric] = (
                statistics.median(per_op_sums[span_name]) if kind == "sum"
                else statistics.median(per_call[span_name]) * 1e3
            )
    for key in accounting[0]:
        value = statistics.median(a[key] for a in accounting)
        metrics["trace.unaccounted_s" if key == "unaccounted" else f"{key}.self_s"] = value
    op_s = statistics.median(op_times)
    same_work = statistics.median(t - p for t, p in zip(op_times, probes))
    untraced = statistics.median(r.cpu for r in plain)
    metrics.update({
        "trace.op_s": op_s,
        "trace.accounted_share": 1.0 - metrics["trace.unaccounted_s"] / op_s,
        "trace.overhead_s": same_work - untraced,
        "trace.overhead_share": (same_work - untraced) / untraced,
        "trace.spans": len(tracer.spans),
        "trace.ops": len(traced_ops),
    })
    # steps of the traced operations' own pretrain() calls, next to the replay
    steps = [x.cpu * 1e3 for _, r in traced_ops for x in r.latencies]
    if "model.gradients" in per_call and "pretrain_data.collate" in per_call:
        step = statistics.median(steps)
        metrics["training.step_other_ms"] = (
            step - metrics["model.gradients_ms"] - metrics["training.adam_ms"]
            - metrics["pretrain_data.collate_ms"]
        )
        metrics["training.data_wait_share"] = metrics["pretrain_data.collate_ms"] / step
    for key, value in traced_ops[-1][1].counts.items():
        metrics[key] = value
    metrics["finetune.predict_calls"] = len(per_call.get("finetune.predict", []))
    metrics["metrics.eval_calls"] = len(per_call.get("metrics.eval", []))
    return metrics


def report_lines(record: dict) -> list[str]:
    """Human-readable lines: environment, digests, every metric with unit."""
    lines = [f"env {json.dumps(record['environment'], sort_keys=True)}"]
    lines.append(f"digests {json.dumps(record['digests'], sort_keys=True)}")
    for failure in record["failures"]:
        lines.append(f"check-failed {failure}")
    lines.append(
        f"checks attempted={record['attempted']} failed={record['failed']} "
        f"error_rate={record['error_rate']}"
    )
    units = record["units"]
    for key, value in record["metrics"].items():
        lines.append(f"metric {key} {value:.6g} {units.get(key, 'count')}")
    for key, (value, unit, n) in record.get("named", {}).items():
        lines.append(f"named {key} {value:.6g} {unit} n={n}")
    return lines


def final_line(record: dict, spec: dict) -> str:
    """The last stdout line: exactly the declared metrics of this mode."""
    declared = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": float(record["metrics"][m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    })
