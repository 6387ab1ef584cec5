"""Smoke tests of the benchmark itself, at tiny sizes.

Every declared metric is printed with its unit, and the output checks
fire on a corrupted example file and on a checkpoint with one flipped
byte.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from farsilm.model import desk_config
from farsilm.pretrain_data import MaskingPolicy, PackingConfig, build_pretrain_examples, write_examples
from farsilm.synthetic import generate_mlm_corpus
from farsilm.training import OptimizerConfig, pretrain
from farsilm.wordpiece import TokenizerTrainConfig, train_wordpiece
from perfbench import calibrate, checks, harness
from perfbench.workloads import TINY

ROOT = Path(__file__).resolve().parent.parent
SPEC = harness.load_spec(ROOT)
# may legitimately read zero on every workload at tiny sizes
MAY_BE_ZERO = {"trace.overhead_s", "trace.overhead_share", "wordpiece.unk_rate"}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return {
        (name, trace): harness.run(name, 5, 0.5, trace, root, TINY)
        for name in ("prep", "pretrain", "finetune")
        for trace in (False, True)
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["prep", "pretrain", "finetune"])
def test_every_declared_metric_printed_with_unit(records, name, trace):
    record = records[(name, trace)]
    assert record["failed"] == 0, record["failures"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    final = json.loads(harness.final_line(record, SPEC))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["attempted"] >= 1
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    lines = harness.report_lines(record)
    for metric in declared:
        assert any(line.startswith(f"metric {metric['name']} ") and line.endswith(f" {metric['unit']}")
                   for line in lines), metric["name"]
    if not trace:
        assert all(final["metrics"][m["name"]]["value"] > 0 for m in declared)
        named = [line.split()[1] for line in lines if line.startswith("named ")]
        assert {"setup_s", "peak_rss_mb", "error_rate"} <= set(named)


def test_every_per_layer_metric_is_measured_somewhere(records):
    produced = {name for name in (m["name"] for m in SPEC["per_layer"])
                if any(records[(w, True)]["metrics"][name] for w in ("prep", "pretrain", "finetune"))}
    missing = {m["name"] for m in SPEC["per_layer"]} - produced - MAY_BE_ZERO
    assert not missing


@pytest.fixture(scope="module")
def tiny_pretrain(tmp_path_factory):
    work = tmp_path_factory.mktemp("pretrain")
    docs = generate_mlm_corpus(seed=2, n_docs=30)
    tokenizer = train_wordpiece([s for d in docs for s in d.sentences], TokenizerTrainConfig(vocab_size=250))
    examples = build_pretrain_examples([d.sentences for d in docs], tokenizer,
                                       PackingConfig(max_len=32, rng_seed=2), MaskingPolicy())
    path = work / "examples.ptex"
    write_examples(examples, path, len(tokenizer.vocab))
    checkpoint = work / "model.flcp"
    result = pretrain(str(path), desk_config(len(tokenizer.vocab)),
                      OptimizerConfig(learning_rate=1e-3, batch_size=8, max_steps=5),
                      seed=2, checkpoint_path=str(checkpoint))
    return tokenizer, examples, path, result, checkpoint


def _flip(src: Path, dst: Path, offset: int) -> Path:
    blob = bytearray(src.read_bytes())
    blob[offset] ^= 0x01
    dst.write_bytes(bytes(blob))
    return dst


def test_checks_pass_on_intact_outputs(tiny_pretrain):
    tokenizer, examples, path, result, checkpoint = tiny_pretrain
    assert checks.example_file(path, examples, len(tokenizer.vocab)) == []
    assert checks.masking(examples, tokenizer, MaskingPolicy()) == []
    assert checks.pretrain_result(result, checkpoint, 5) == []


@pytest.mark.parametrize("offset", [2, 16 + 4 + 8, -2])
def test_example_check_fires_on_corrupted_file(tiny_pretrain, tmp_path, offset):
    tokenizer, examples, path, _, _ = tiny_pretrain
    bad = _flip(path, tmp_path / "bad.ptex", offset)
    assert checks.example_file(bad, examples, len(tokenizer.vocab))


def test_example_check_fires_on_truncated_file(tiny_pretrain, tmp_path):
    tokenizer, examples, path, _, _ = tiny_pretrain
    bad = tmp_path / "short.ptex"
    bad.write_bytes(path.read_bytes()[:-7])
    assert checks.example_file(bad, examples, len(tokenizer.vocab))


@pytest.mark.parametrize("where", ["header", "tensor", "last"])
def test_checkpoint_check_fires_on_one_flipped_byte(tiny_pretrain, tmp_path, where):
    _, _, _, result, checkpoint = tiny_pretrain
    size = checkpoint.stat().st_size
    offset = {"header": 20, "tensor": size // 2, "last": size - 1}[where]
    bad = _flip(checkpoint, tmp_path / "bad.flcp", offset)
    assert checks.pretrain_result(result, bad, 5)


def test_masking_check_fires_on_a_moved_label(tiny_pretrain):
    tokenizer, examples, _, _, _ = tiny_pretrain
    ex = examples[0]
    labels = list(ex.mlm_labels)
    pos = next(i for i, x in enumerate(labels) if x != -100)
    labels[pos] = -100
    broken = [ex.__class__(ex.input_ids, ex.segment_ids, ex.attention_mask, tuple(labels), ex.nsp_label)]
    assert checks.masking(broken + list(examples[1:]), tokenizer, MaskingPolicy())


def test_normalize_check_fires_on_surviving_junk():
    assert checks.normalized(["متن <b>x"], ["متن x"])
    assert checks.normalized(["متن ي"], ["متن ی"])
    assert checks.normalized(["alpha"], ["beta"])
    assert checks.normalized(["alpha"], ["alpha"]) == []


def test_split_tolerance_shrinks_to_two_points():
    assert checks.split_tolerance(0.8, 10) > 0.02
    assert checks.split_tolerance(0.8, 10**6) == 0.02
    assert np.isclose(checks.split_tolerance(0.1, 100), 0.15)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_meter_leaves_kernel_calls_out_and_disarms_its_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Meter("python") as meter:
        start = calibrate.stamp()
        while calibrate.stamp()[1] - start[1] < 0.5:
            sum(range(1000))
        end = calibrate.stamp()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert meter.marks
    span = meter.span(start, end)
    kernels = sum(m.cpu1 - m.cpu0 for m in meter.marks if start[1] <= m.cpu0 < end[1])
    assert kernels > 0 and np.isclose(span.cpu, end[1] - start[1] - kernels)
    assert np.isclose(span.scaled, span.cpu / meter.slowness(start[1], end[1]))


def test_meter_without_probe_scales_nothing():
    with calibrate.Meter("blas", probe=False) as meter:
        start = calibrate.stamp()
        sum(range(100000))
        end = calibrate.stamp()
    span = meter.span(start, end)
    assert not meter.marks and span.scaled == span.cpu > 0
