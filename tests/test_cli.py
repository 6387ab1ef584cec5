"""Command-line surface tests: exit codes, formats, and determinism."""

import filecmp
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from farsilm import model as model_module
from farsilm.cli import _evaluate, build_parser, main
from farsilm.finetune import TASKS, FinetuneConfig, save_head_model
from farsilm.lineio import read_records
from farsilm.pretrain_data import read_examples
from farsilm.synthetic import classification_labels, ner_tag_inventory
from farsilm.training import load_checkpoint
from farsilm.wordpiece import load_vocab

# one document whose first sentence spans a line break
LINE_BROKEN = "این یک جمله است\nو ادامه دارد. جمله دوم هم هست.\n"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared artifacts: corpus through a two-step checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "corpus": root / "corpus.jsonl",
        "norm": root / "norm.jsonl",
        "seg": root / "seg.jsonl",
        "vocab": root / "vocab.txt",
        "examples": root / "ex.ptex",
        "checkpoint": root / "ck.flcp",
        "root": root,
    }
    assert main(["gen-synthetic", "mlm-corpus", "--seed", "11", "--docs", "24",
                 "--out", str(paths["corpus"])]) == 0
    assert main(["normalize", "--in", str(paths["corpus"]), "--out", str(paths["norm"]),
                 "--format", "line-records"]) == 0
    assert main(["segment", "--in", str(paths["norm"]), "--out", str(paths["seg"])]) == 0
    assert main(["train-tokenizer", "--in", str(paths["seg"]), "--out", str(paths["vocab"]),
                 "--vocab-size", "300", "--min-freq", "1"]) == 0
    assert main(["build-pretrain", "--in", str(paths["seg"]), "--vocab", str(paths["vocab"]),
                 "--out", str(paths["examples"]), "--max-len", "48", "--seed", "3"]) == 0
    assert main(["pretrain", "--examples", str(paths["examples"]),
                 "--out", str(paths["checkpoint"]), "--seed", "5", "--steps", "2"]) == 0
    return paths


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as info:
            main(["segment", "--bogus-flag"])
        assert info.value.code == 1

    def test_missing_subcommand_is_one(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["normalize", "--in", "{missing}", "--out", "{out}"], "cannot read"),
            (["finetune-ner", "--checkpoint", "{checkpoint}", "--vocab", "{vocab}",
              "--train", "{bad}", "--dev", "{bad}", "--out", "{out}"],
             "invalid UTF-8 at byte offset 3"),
        ],
        ids=["missing-input", "invalid-utf8-tags"],
    )
    def test_data_error_is_two(self, pipeline, tmp_path, capsys, argv, message):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"ab\t\xff\n")
        names = {"missing": tmp_path / "missing.txt", "out": tmp_path / "out", "bad": bad,
                 "checkpoint": pipeline["checkpoint"], "vocab": pipeline["vocab"]}
        assert main([arg.format(**names) for arg in argv]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [("trailing-bytes", "2 bytes after its last tensor"), ("garbled-header", "malformed header")],
    )
    def test_malformed_checkpoint_is_two(self, pipeline, tmp_path, capsys, damage, message):
        data = bytearray(pipeline["checkpoint"].read_bytes())
        if damage == "trailing-bytes":
            data += b"\x00\x01"
        else:
            data[12] = 0xFF  # first byte of the JSON header
        bad = tmp_path / "bad.flcp"
        bad.write_bytes(bytes(data))
        # an existing --out checkpoint is loaded to resume from
        assert main(["pretrain", "--examples", str(pipeline["examples"]), "--out", str(bad),
                     "--seed", "5", "--steps", "2"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-synthetic", "mlm-corpus", "--out", "{out}"],
            ["build-pretrain", "--in", "{seg}", "--vocab", "{vocab}", "--out", "{out}"],
            ["pretrain", "--examples", "{examples}", "--out", "{out}", "--steps", "1"],
            ["finetune-cls", "--checkpoint", "{checkpoint}", "--vocab", "{vocab}",
             "--train", "{cls}", "--dev", "{cls}", "--out", "{out}"],
            ["finetune-ner", "--checkpoint", "{checkpoint}", "--vocab", "{vocab}",
             "--train", "{ner}", "--dev", "{ner}", "--out", "{out}"],
        ],
        ids=["gen-synthetic", "build-pretrain", "pretrain", "finetune-cls", "finetune-ner"],
    )
    def test_negative_seed_is_config_error(self, pipeline, tmp_path, capsys, argv):
        data = {task: tmp_path / f"{task}.data" for task in ("cls", "ner")}
        for task, path in data.items():
            assert main(["gen-synthetic", task, "--seed", "3", "--count", "8",
                         "--out", str(path)]) == 0
        names = {**pipeline, **data, "out": tmp_path / "out"}
        assert main([arg.format(**names) for arg in argv] + ["--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["pretrain", "--examples", "{examples}", "--out", "{out}", "--steps", "1"],
            ["finetune-cls", "--checkpoint", "{checkpoint}", "--vocab", "{vocab}",
             "--train", "{cls}", "--dev", "{cls}", "--out", "{out}"],
        ],
        ids=["pretrain", "finetune-cls"],
    )
    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_learning_rate_is_config_error(self, pipeline, tmp_path, capsys, argv,
                                                      rate):
        data = tmp_path / "cls.data"
        assert main(["gen-synthetic", "cls", "--seed", "3", "--count", "8",
                     "--out", str(data)]) == 0
        names = {**pipeline, "cls": data, "out": tmp_path / "out"}
        assert main([arg.format(**names) for arg in argv]
                    + ["--seed", "1", "--learning-rate", rate]) == 2
        assert (f"learning_rate must be a finite positive number, got {rate}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task", ["cls", "ner"])
    def test_non_finite_fine_tuning_gradient_is_two(
        self, pipeline, tmp_path, capsys, monkeypatch, task
    ):
        def poisoned(*args):
            real_backprop(*args)
            args[-1]["head_w"][0, 0] = np.inf

        real_backprop = model_module.backprop_encoder
        monkeypatch.setattr(model_module, "backprop_encoder", poisoned)
        data, out = tmp_path / f"{task}.data", tmp_path / "out"
        assert main(["gen-synthetic", task, "--seed", "3", "--count", "8",
                     "--out", str(data)]) == 0
        assert main([f"finetune-{task}", "--checkpoint", str(pipeline["checkpoint"]),
                     "--vocab", str(pipeline["vocab"]), "--train", str(data),
                     "--dev", str(data), "--out", str(out)]) == 2
        assert "epoch 1 step 1: gradient of head_w is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, record, shown",
        [
            (["finetune-cls", "--checkpoint", "{checkpoint}", "--vocab", "{vocab}",
              "--train", "{bad}", "--dev", "{bad}", "--out", "{out}"],
             {"text": None, "label": "class0"}, "null in text"),
            (["finetune-cls", "--checkpoint", "{checkpoint}", "--vocab", "{vocab}",
              "--train", "{bad}", "--dev", "{bad}", "--out", "{out}"],
             {"text": 12, "label": "class0"}, "12 in text"),
            (["train-tokenizer", "--in", "{bad}", "--out", "{out}", "--min-freq", "1"],
             {"sentences": [None, 7, "سلام دنیا"]}, "null in sentences"),
            (["train-tokenizer", "--in", "{bad}", "--out", "{out}", "--min-freq", "1"],
             {"text": 7}, "7 in text"),
            (["build-pretrain", "--in", "{bad}", "--vocab", "{vocab}", "--out", "{out}",
              "--seed", "1"],
             {"sentences": [None, 7, "سلام دنیا"]}, "null in sentences"),
            (["normalize", "--in", "{bad}", "--out", "{out}", "--format", "line-records"],
             {"id": 7, "text": "سلام"}, "7 in id"),
            (["normalize", "--in", "{bad}", "--out", "{out}", "--format", "line-records"],
             {"source": False, "text": "سلام"}, "false in source"),
        ],
        ids=["finetune-cls-null", "finetune-cls-number", "train-tokenizer-sentences",
             "train-tokenizer-text", "build-pretrain", "normalize-id", "normalize-source"],
    )
    def test_non_string_record_field_is_two(self, pipeline, tmp_path, capsys, argv, record,
                                            shown):
        # the first line is well formed, so the error must name the second
        good = {key: "class0" if key == "label" else "سلام" for key in record}
        if "sentences" in record:
            good["sentences"] = ["سلام دنیا"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
        names = {**pipeline, "bad": bad, "out": tmp_path / "out"}
        assert main([arg.format(**names) for arg in argv]) == 2
        assert f"{bad}: record on line 2 holds {shown}, not a string" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sentences_that_are_not_a_list_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"sentences": "سلام دنیا"}, ensure_ascii=False) + "\n",
                       encoding="utf-8")
        assert main(["train-tokenizer", "--in", str(bad), "--out", str(tmp_path / "out"),
                     "--min-freq", "1"]) == 2
        assert (f'{bad}: record on line 1 holds "سلام دنیا" in sentences, not a list'
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_eval_ner_on_an_empty_file_is_two(self, pipeline, tmp_path, capsys):
        data, head, empty = tmp_path / "ner.conll", tmp_path / "ner.flcp", tmp_path / "empty"
        assert main(["gen-synthetic", "ner", "--seed", "3", "--count", "8",
                     "--out", str(data)]) == 0
        assert main(["finetune-ner", "--checkpoint", str(pipeline["checkpoint"]),
                     "--vocab", str(pipeline["vocab"]), "--train", str(data), "--dev", str(data),
                     "--out", str(head), "--epochs", "0", "--seed", "1"]) == 0
        empty.write_text("", encoding="utf-8")
        assert main(["eval-ner", "--model", str(head), "--vocab", str(pipeline["vocab"]),
                     "--in", str(empty), "--out", str(tmp_path / "report")]) == 2
        assert "entity_f1 is undefined on empty inputs" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["pretrain", "--help"])
        assert info.value.code == 0


class TestNormalize:
    def test_clean_plain_text_is_identity_modulo_whitespace(self, tmp_path):
        src = tmp_path / "a.txt"
        dst = tmp_path / "b.txt"
        src.write_text("سلام  دنیا\nخوب است.\n", encoding="utf-8")
        assert main(["normalize", "--in", str(src), "--out", str(dst)]) == 0
        assert dst.read_text(encoding="utf-8") == "سلام دنیا\nخوب است.\n"

    def test_record_output_keeps_ids(self, pipeline, tmp_path):
        out = tmp_path / "n.jsonl"
        assert main(["normalize", "--in", str(pipeline["corpus"]), "--out", str(out),
                     "--format", "line-records"]) == 0
        records = [r for _, r in read_records(out)]
        assert records[0]["id"] == "doc00000"
        assert all(set(r) == {"id", "source", "text"} for r in records)


class TestSegment:
    def test_notation_mode_oversplits(self, pipeline, tmp_path):
        out = tmp_path / "notation.jsonl"
        assert main(["segment", "--in", str(pipeline["norm"]), "--out", str(out),
                     "--mode", "notation"]) == 0
        true_counts = {r["id"]: len(r["sentences"]) for _, r in read_records(pipeline["seg"])}
        notation_counts = {r["id"]: len(r["sentences"]) for _, r in read_records(out)}
        assert sum(notation_counts[k] for k in notation_counts) >= sum(
            true_counts[k] for k in true_counts
        )
        assert any(notation_counts[k] > true_counts[k] for k in true_counts)

    def test_sentence_across_a_line_break_in_plain_text(self, tmp_path):
        src = tmp_path / "p.txt"
        src.write_text(LINE_BROKEN, encoding="utf-8")
        out = tmp_path / "s.jsonl"
        assert main(["segment", "--in", str(src), "--out", str(out), "--format", "plain"]) == 0
        [(_, record)] = read_records(out)
        assert record["sentences"] == ["این یک جمله است و ادامه دارد.", "جمله دوم هم هست."]

    def test_sentence_across_a_line_break_in_a_record(self, tmp_path):
        src = tmp_path / "r.jsonl"
        src.write_text(json.dumps({"id": "d", "text": LINE_BROKEN}) + "\n", encoding="utf-8")
        out = tmp_path / "s.jsonl"
        assert main(["segment", "--in", str(src), "--out", str(out)]) == 0
        [(_, record)] = read_records(out)
        assert not any("\n" in text for text in record["sentences"])
        assert len(record["sentences"]) == 2


class TestStats:
    def test_table_and_records(self, pipeline, tmp_path, capsys):
        out = tmp_path / "stats.jsonl"
        assert main(["stats", "--in", str(pipeline["norm"]), "--out", str(out)]) == 0
        table = capsys.readouterr().out
        assert "synthetic" in table and "TOTAL" in table
        records = [r for _, r in read_records(out)]
        assert any(r.get("source") == "__total__" for r in records)

    def test_sentence_across_a_line_break_in_plain_text(self, tmp_path, capsys):
        src = tmp_path / "p.txt"
        src.write_text(LINE_BROKEN, encoding="utf-8")
        assert main(["stats", "--in", str(src), "--format", "plain"]) == 0
        assert re.search(r"TOTAL +1 +2\n", capsys.readouterr().out)


class TestTokenizerCommands:
    def test_double_training_is_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "vocab2.txt"
        assert main(["train-tokenizer", "--in", str(pipeline["seg"]), "--out", str(again),
                     "--vocab-size", "300", "--min-freq", "1"]) == 0
        assert filecmp.cmp(pipeline["vocab"], again, shallow=False)

    def test_encode_writes_id_records(self, pipeline, tmp_path):
        src = tmp_path / "lines.txt"
        out = tmp_path / "enc.jsonl"
        text = json.loads(pipeline["corpus"].read_text(encoding="utf-8").splitlines()[0])["text"]
        src.write_text(text.split(".")[0] + "\n", encoding="utf-8")
        assert main(["encode", "--vocab", str(pipeline["vocab"]), "--in", str(src),
                     "--out", str(out), "--pieces"]) == 0
        (record,) = [r for _, r in read_records(out)]
        assert record["ids"] and len(record["ids"]) == len(record["pieces"])


class TestPretrainCommand:
    def test_checkpoint_matches_requested_shape(self, pipeline):
        checkpoint = load_checkpoint(str(pipeline["checkpoint"]))
        assert checkpoint.step == 2
        assert checkpoint.model_config.layers == 2
        assert checkpoint.model_config.max_positions == 48
        examples, vocab_size = read_examples(pipeline["examples"])
        assert checkpoint.model_config.vocab_size == vocab_size

    def test_rejects_non_example_file(self, pipeline, tmp_path):
        bogus = tmp_path / "bogus.ptex"
        bogus.write_bytes(b"not an example file")
        assert main(["pretrain", "--examples", str(bogus), "--out",
                     str(tmp_path / "x.flcp"), "--seed", "1", "--steps", "1"]) == 2

    @pytest.mark.parametrize(
        ("damage", "message"),
        [("flipped-tensor-byte", "fails its CRC32 check"), ("cut-in-tensors", "is truncated"),
         ("cut-in-header", "is truncated")],
    )
    def test_damaged_example_file_is_two(self, pipeline, tmp_path, capsys, damage, message):
        data = pipeline["examples"].read_bytes()
        bad = tmp_path / "bad.ptex"
        bad.write_bytes({
            "flipped-tensor-byte": data[:-3] + bytes([data[-3] ^ 1]) + data[-2:],
            "cut-in-tensors": data[:-7],
            "cut-in-header": data[:20],  # the prefix and four bytes of the header
        }[damage])
        out = tmp_path / "x.flcp"
        assert main(["pretrain", "--examples", str(bad), "--out", str(out),
                     "--seed", "1", "--steps", "1"]) == 2
        err = capsys.readouterr().err
        assert message in err and str(bad) in err
        assert not out.exists()

    def test_reads_the_example_file_once(self, pipeline, tmp_path, monkeypatch):
        """The sizes come from the header; only pretrain() reads the examples."""
        calls = []
        for name, module in list(sys.modules.items()):
            if name.startswith("farsilm") and hasattr(module, "read_examples"):
                def counted(*args, _read=module.read_examples, **kwargs):
                    calls.append(args[0])
                    return _read(*args, **kwargs)
                monkeypatch.setattr(module, "read_examples", counted)
        assert main(["pretrain", "--examples", str(pipeline["examples"]),
                     "--out", str(tmp_path / "x.flcp"), "--seed", "1", "--steps", "1"]) == 0
        assert calls == [str(pipeline["examples"])]


class TestFinetuneAndEval:
    def test_classifier_round_trip(self, pipeline, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        dev = tmp_path / "dev.jsonl"
        head = tmp_path / "cls.flcp"
        report = tmp_path / "report.jsonl"
        assert main(["gen-synthetic", "cls", "--seed", "7", "--count", "16",
                     "--out", str(train)]) == 0
        assert main(["gen-synthetic", "cls", "--seed", "8", "--count", "8",
                     "--out", str(dev)]) == 0
        assert main(["finetune-cls", "--checkpoint", str(pipeline["checkpoint"]),
                     "--vocab", str(pipeline["vocab"]), "--train", str(train),
                     "--dev", str(dev), "--out", str(head), "--epochs", "1",
                     "--seed", "2"]) == 0
        assert main(["eval-cls", "--model", str(head), "--vocab", str(pipeline["vocab"]),
                     "--in", str(dev), "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out and "macro f1" in out
        assert any(r.get("class") == "class0" for _, r in read_records(report))

    def test_eval_with_another_vocabulary_of_the_same_size_exits_two(self, pipeline, tmp_path,
                                                                     capsys):
        data = tmp_path / "cls.jsonl"
        head = tmp_path / "cls.flcp"
        assert main(["gen-synthetic", "cls", "--seed", "7", "--count", "8",
                     "--out", str(data)]) == 0
        assert main(["finetune-cls", "--checkpoint", str(pipeline["checkpoint"]),
                     "--vocab", str(pipeline["vocab"]), "--train", str(data),
                     "--dev", str(data), "--out", str(head), "--epochs", "1"]) == 0
        # the same tokens with the last two swapped: the same size, another file
        tokens = pipeline["vocab"].read_text(encoding="utf-8").splitlines()
        tokens[-2:] = tokens[:-3:-1]
        other = tmp_path / "other.txt"
        other.write_text("".join(token + "\n" for token in tokens), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval-cls", "--model", str(head), "--vocab", str(other),
                     "--in", str(data)]) == 2
        err = capsys.readouterr().err
        for path in (pipeline["vocab"], other):
            assert hashlib.sha256(path.read_bytes()).hexdigest() in err

    def test_tagger_round_trip(self, pipeline, tmp_path, capsys):
        train = tmp_path / "train.conll"
        dev = tmp_path / "dev.conll"
        head = tmp_path / "ner.flcp"
        assert main(["gen-synthetic", "ner", "--seed", "9", "--count", "12",
                     "--out", str(train)]) == 0
        assert main(["gen-synthetic", "ner", "--seed", "10", "--count", "6",
                     "--out", str(dev)]) == 0
        assert main(["finetune-ner", "--checkpoint", str(pipeline["checkpoint"]),
                     "--vocab", str(pipeline["vocab"]), "--train", str(train),
                     "--dev", str(dev), "--out", str(head), "--epochs", "1",
                     "--seed", "2"]) == 0
        assert main(["eval-ner", "--model", str(head), "--vocab", str(pipeline["vocab"]),
                     "--in", str(dev)]) == 0
        assert "entity scoring" in capsys.readouterr().out


class TestTaskTable:
    def test_each_task_has_one_finetune_and_one_eval_subcommand(self):
        parser = build_parser()
        (subcommands,) = [a.choices for a in parser._actions if hasattr(a, "add_parser")]
        for verb in ("finetune", "eval"):
            named = sorted(c for c in subcommands if c.startswith(f"{verb}-"))
            assert named == sorted(f"{verb}-{name}" for name in TASKS)
        assert all(task.name == name for name, task in TASKS.items())

    # settings that leave each head with a dev score strictly between 0 and
    # 1 (0.96 and 0.21 at one BLAS thread), so the comparison is not 0 == 0
    @pytest.mark.parametrize(
        "name, count, learning_rate, batch_size",
        [("cls", 64, 2e-3, 8), ("ner", 96, 5e-3, 16)],
    )
    def test_last_dev_score_is_the_eval_headline(
        self, pipeline, tmp_path, name, count, learning_rate, batch_size
    ):
        task = TASKS[name]
        train, dev, head = tmp_path / "train", tmp_path / "dev", tmp_path / "head.flcp"
        assert main(["gen-synthetic", name, "--seed", "7", "--count", str(count),
                     "--out", str(train)]) == 0
        assert main(["gen-synthetic", name, "--seed", "8", "--count", "24",
                     "--out", str(dev)]) == 0
        train_items, dev_items = task.load(str(train)), task.load(str(dev))
        labels = sorted({x for item in train_items + dev_items for x in task.labels(item)})
        config = FinetuneConfig(labels, epochs=4, learning_rate=learning_rate,
                                batch_size=batch_size, seed=2)
        outcome = task.finetune(load_checkpoint(str(pipeline["checkpoint"])),
                                load_vocab(str(pipeline["vocab"])), train_items, dev_items, config)
        save_head_model(str(head), outcome.model)
        _, _, headline = _evaluate(task, str(head), str(pipeline["vocab"]), str(dev))
        assert outcome.dev_trace[-1] == headline

    def test_eval_of_the_other_task_s_head_is_a_data_error(self, pipeline, tmp_path, capsys):
        data, head = tmp_path / "cls.jsonl", tmp_path / "cls.flcp"
        assert main(["gen-synthetic", "cls", "--seed", "3", "--count", "8",
                     "--out", str(data)]) == 0
        assert main(["finetune-cls", "--checkpoint", str(pipeline["checkpoint"]),
                     "--vocab", str(pipeline["vocab"]), "--train", str(data), "--dev", str(data),
                     "--out", str(head), "--epochs", "0", "--seed", "1"]) == 0
        assert main(["eval-ner", "--model", str(head), "--vocab", str(pipeline["vocab"]),
                     "--in", str(data)]) == 2
        assert "holds a classifier head; eval-ner needs a tagger" in capsys.readouterr().err


class TestGenSynthetic:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            assert main(["gen-synthetic", "cls", "--seed", "4", "--count", "10",
                         "--out", str(path)]) == 0
        assert filecmp.cmp(a, b, shallow=False)

    def test_bad_class_count_is_config_error(self, tmp_path):
        assert main(["gen-synthetic", "cls", "--seed", "4", "--count", "10",
                     "--classes", "1", "--out", str(tmp_path / "x.jsonl")]) == 2


_CLS_PATHS = "".join(f"cls_{key} = cls_{key}.out\n" for key in ("train", "dev", "model", "report"))
_NER_PATHS = "".join(f"ner_{key} = ner_{key}.out\n" for key in ("train", "dev", "model", "report"))


class TestManifestRun:
    def _write(self, path: Path, extra: str = "") -> Path:
        path.write_text(
            "# test pipeline\n"
            "seed = 21\n"
            "docs = 20\n"
            "vocab_size = 300\n"
            "min_frequency = 1\n"
            "max_len = 32\n"
            "steps = 2\n"
            "corpus = corpus.jsonl\n"
            "normalized = norm.jsonl\n"
            "segments = seg.jsonl\n"
            "vocab = vocab.txt\n"
            "examples = ex.ptex\n"
            "checkpoint = ck.flcp\n"
            "trace = trace.csv\n" + extra,
            encoding="utf-8",
        )
        return path

    def test_two_runs_are_byte_identical(self, tmp_path):
        for name in ("one", "two"):
            d = tmp_path / name
            d.mkdir()
            assert main(["run", "--manifest", str(self._write(d / "m.txt"))]) == 0
        for name in ("vocab.txt", "ex.ptex", "ck.flcp", "trace.csv", "corpus.jsonl"):
            assert filecmp.cmp(tmp_path / "one" / name, tmp_path / "two" / name,
                               shallow=False), name

    def test_rerun_on_changed_data_stops_at_pretraining(self, tmp_path, capsys):
        # a rerun in the same directory rebuilds the vocabulary and the
        # examples; the checkpoint trained on the old examples is not resumed
        manifest = tmp_path / "m.txt"
        settings = ("seed = 21\nvocab_size = 400\nmax_len = 48\nsteps = 20\n"
                    "corpus = corpus.jsonl\nnormalized = norm.jsonl\nsegments = seg.jsonl\n"
                    "vocab = vocab.txt\nexamples = ex.ptex\ncheckpoint = ck.flcp\n")
        manifest.write_text(settings + "docs = 120\n", encoding="utf-8")
        assert main(["run", "--manifest", str(manifest)]) == 0
        checkpoint = tmp_path / "ck.flcp"
        before = checkpoint.read_bytes()
        manifest.write_text(settings + "docs = 60\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--manifest", str(manifest)]) == 2
        assert f"remove {checkpoint} to train on this file" in capsys.readouterr().err
        assert checkpoint.read_bytes() == before

    def test_missing_seed_is_config_error(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("docs = 5\ncorpus = c.jsonl\n", encoding="utf-8")
        assert main(["run", "--manifest", str(manifest)]) == 2

    def test_negative_seed_fails_before_the_first_stage(self, tmp_path, capsys):
        manifest = self._write(tmp_path / "m.txt")
        manifest.write_text(manifest.read_text(encoding="utf-8").replace("seed = 21", "seed = -1"),
                            encoding="utf-8")
        assert main(["run", "--manifest", str(manifest)]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_zero_docs_fails_before_the_first_stage(self, tmp_path, capsys):
        manifest = self._write(tmp_path / "m.txt")
        manifest.write_text(manifest.read_text(encoding="utf-8").replace("docs = 20", "docs = 0"),
                            encoding="utf-8")
        assert main(["run", "--manifest", str(manifest)]) == 2
        assert "manifest key docs must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_malformed_line_is_config_error(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("seed = 1\nthis line has no equals sign\n", encoding="utf-8")
        assert main(["run", "--manifest", str(manifest)]) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("beta1 = 1.5", r"beta1 must lie in \[0,1\), got 1.5"),
            ("learning_rate = fast", "manifest key learning_rate is not a number: 'fast'"),
            ("learning_rate = nan", "learning_rate must be a finite positive number, got nan"),
            ("heads = 3", "hidden 64 is not divisible by heads 3"),
            ("heads = 0", "heads must be positive"),
            ("cls_classes = 1\n" + _CLS_PATHS, "classification needs at least 2 classes"),
            # the dev set is a quarter of cls_count, at least 2: here 2 items
            (
                "cls_classes = 3\ncls_count = 4\n" + _CLS_PATHS,
                r"cls_count 4 and its dev split of 2 items \(a quarter of cls_count, at least 2\) "
                r"must each cover every class at least once \(3 classes\)",
            ),
            ("ner_count = 0\n" + _NER_PATHS, "manifest key ner_count must be at least 1, got 0"),
            ("cls_count = 0\n" + _CLS_PATHS, "manifest key cls_count must be at least 1, got 0"),
            ("log_every = 0", "log_every must be at least 1"),
            ("stepz = 2", r"manifest has unknown keys \['stepz'\]"),
            ("dropout = 0.1", r"manifest has unknown keys \['dropout'\]"),
            ("cls_epochs = 1", r"manifest has unknown keys \['cls_epochs'\]"),
        ],
        ids=["beta1", "learning_rate", "learning_rate-nan", "heads-3", "heads-0", "cls_classes",
             "cls_count-dev", "ner_count-0", "cls_count-0", "log_every", "stepz", "dropout", "cls_epochs-without-cls_model"],
    )
    def test_bad_key_fails_before_the_first_stage(self, tmp_path, capsys, line, message):
        assert main(["run", "--manifest", str(self._write(tmp_path / "m.txt", line + "\n"))]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "corpus.jsonl").exists()

    def test_optional_finetune_stage_runs(self, tmp_path):
        extra = (
            "cls_train = cls_train.jsonl\n"
            "cls_dev = cls_dev.jsonl\n"
            "cls_model = cls_head.flcp\n"
            "cls_report = cls_report.jsonl\n"
            "cls_count = 12\n"
            "cls_epochs = 1\n"
        )
        assert main(["run", "--manifest", str(self._write(tmp_path / "m.txt", extra))]) == 0
        assert (tmp_path / "cls_head.flcp").exists()
        assert any(True for _ in read_records(tmp_path / "cls_report.jsonl"))

    def test_oversized_finetune_item_fails_before_pretraining(self, tmp_path, capsys):
        assert main(["run", "--manifest", str(self._write(tmp_path / "m.txt", _NER_PATHS))]) == 2
        err = capsys.readouterr().err
        assert re.search(r"sequence \d+ needs \d+ pieces, model capacity is 32\n$", err)
        assert f"{tmp_path / 'ner_train.out'} sequence" in err
        assert (tmp_path / "vocab.txt").exists()
        for name in ("ex.ptex", "ck.flcp", "trace.csv", "ner_model.out"):
            assert not (tmp_path / name).exists(), name

    def test_subcommands_write_the_heads_the_runner_writes(self, tmp_path):
        settings = {"cls": ("1", "0.002", "5"), "ner": ("2", "0.001", "4")}
        extra = "cls_classes = 3\n"
        for task, (epochs, lr, batch) in settings.items():
            for key in ("train", "dev", "model", "report"):
                extra += f"{task}_{key} = {task}_{key}.out\n"
            extra += (f"{task}_count = 12\n{task}_epochs = {epochs}\n"
                      f"{task}_learning_rate = {lr}\n{task}_batch_size = {batch}\n")
        assert main(["run", "--manifest", str(self._write(tmp_path / "m.txt", extra))]) == 0

        labels = {"cls": classification_labels(3), "ner": ner_tag_inventory()}
        for task, (epochs, lr, batch) in settings.items():
            head = tmp_path / f"{task}_cli.flcp"
            assert main([f"finetune-{task}", "--checkpoint", str(tmp_path / "ck.flcp"),
                         "--vocab", str(tmp_path / "vocab.txt"),
                         "--train", str(tmp_path / f"{task}_train.out"),
                         "--dev", str(tmp_path / f"{task}_dev.out"), "--out", str(head),
                         "--labels", ",".join(labels[task]), "--epochs", epochs,
                         "--learning-rate", lr, "--batch-size", batch, "--seed", "21"]) == 0
            assert filecmp.cmp(tmp_path / f"{task}_model.out", head, shallow=False), task
