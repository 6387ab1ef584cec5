"""Evaluation metrics: accuracy, per-class F1 with macro and weighted
averages, and exact-match entity-level scoring over IOB tag sequences.

Zero-denominator conventions are fixed and documented here: precision,
recall and F1 each define 0/0 as 0, except a corpus with no gold and no
predicted entities, which scores 1.0 by the nothing-to-find convention.
Which averaging a published table used is often unstated, so emitted
reports always carry every variant plus a note saying so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DataError

AVERAGING_NOTE = (
    "macro and weighted F1 are both reported; published tables rarely say "
    "which they used, so pick one explicitly when comparing"
)


@dataclass(frozen=True)
class ClassScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class: dict[str, ClassScore]
    macro_f1: float
    weighted_f1: float


@dataclass(frozen=True, order=True)
class EntitySpan:
    category: str
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise DataError(
                f"entity span must satisfy 0 <= start <= end, got [{self.start},{self.end}]"
            )


@dataclass(frozen=True)
class EntityScore:
    precision: float
    recall: float
    f1: float
    per_category: dict[str, ClassScore]


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def accuracy(gold: Sequence, pred: Sequence) -> float:
    """Fraction of positions where prediction equals gold."""
    if len(gold) != len(pred):
        raise DataError(f"length mismatch: {len(gold)} gold labels vs {len(pred)} predicted")
    if not gold:
        raise DataError("accuracy is undefined on empty inputs")
    return sum(g == p for g, p in zip(gold, pred)) / len(gold)


def f1_report(gold: Sequence, pred: Sequence, labels: Sequence) -> EvalReport:
    """Per-class precision/recall/F1 plus macro and weighted averages.

    Macro averages over the full label inventory, zero-support classes
    included; weighted weights each class by its gold support.
    """
    if len(gold) != len(pred):
        raise DataError(f"length mismatch: {len(gold)} gold labels vs {len(pred)} predicted")
    if not gold:
        raise DataError("f1_report is undefined on empty inputs")
    inventory = list(dict.fromkeys(labels))
    known = set(inventory)
    for name, seq in (("gold", gold), ("predicted", pred)):
        for label in seq:
            if label not in known:
                raise DataError(f"{name} label {label!r} is outside the inventory")

    per_class = {}
    for cls in inventory:
        tp = sum(1 for g, p in zip(gold, pred) if g == cls and p == cls)
        fp = sum(1 for g, p in zip(gold, pred) if g != cls and p == cls)
        fn = sum(1 for g, p in zip(gold, pred) if g == cls and p != cls)
        precision, recall, f1 = _prf(tp, fp, fn)
        per_class[cls] = ClassScore(precision, recall, f1, support=tp + fn)

    macro = sum(s.f1 for s in per_class.values()) / len(inventory)
    total_support = sum(s.support for s in per_class.values())
    weighted = sum(s.f1 * s.support for s in per_class.values()) / total_support
    return EvalReport(
        accuracy=accuracy(gold, pred),
        per_class=per_class,
        macro_f1=macro,
        weighted_f1=weighted,
    )


def _parse_tag(tag: str, position: int) -> tuple[str, str | None]:
    if tag == "O":
        return "O", None
    kind, sep, category = tag[:1], tag[1:2], tag[2:]
    if kind in ("B", "I") and sep in ("-", "_") and category:
        return kind, category
    raise DataError(f"invalid IOB tag {tag!r} at position {position}")


def extract_entities(tags: Sequence[str]) -> list[EntitySpan]:
    """Collect maximal entity spans from one IOB sequence, sorted by start.

    Lenient: an I tag with no live same-category span opens a new one.
    """
    spans: list[EntitySpan] = []
    open_cat: str | None = None
    open_start = 0
    for i, tag in enumerate(tags):
        kind, category = _parse_tag(tag, i)
        if kind == "I" and category == open_cat:
            continue
        if open_cat is not None:
            spans.append(EntitySpan(open_cat, open_start, i - 1))
        open_cat = category
        open_start = i
    if open_cat is not None:
        spans.append(EntitySpan(open_cat, open_start, len(tags) - 1))
    return spans


def entity_f1(
    gold_seqs: Sequence[Sequence[str]],
    pred_seqs: Sequence[Sequence[str]],
) -> EntityScore:
    """Micro-averaged exact-match entity scoring across a corpus.

    An entity counts only when category, start and end all agree. A corpus
    with no entities on either side scores 1.0 throughout.
    """
    if len(gold_seqs) != len(pred_seqs):
        raise DataError(
            f"corpus mismatch: {len(gold_seqs)} gold sequences vs {len(pred_seqs)} predicted"
        )
    tp = fp = fn = 0
    cat_counts: dict[str, list[int]] = {}
    for item, (gold_tags, pred_tags) in enumerate(zip(gold_seqs, pred_seqs)):
        if len(gold_tags) != len(pred_tags):
            raise DataError(
                f"item {item}: gold has {len(gold_tags)} tags, predictions {len(pred_tags)}"
            )
        gold_spans = set(extract_entities(gold_tags))
        pred_spans = set(extract_entities(pred_tags))
        tp += len(gold_spans & pred_spans)
        fp += len(pred_spans - gold_spans)
        fn += len(gold_spans - pred_spans)
        for span in gold_spans | pred_spans:
            counts = cat_counts.setdefault(span.category, [0, 0, 0])
            in_gold, in_pred = span in gold_spans, span in pred_spans
            counts[0] += in_gold and in_pred
            counts[1] += in_pred and not in_gold
            counts[2] += in_gold and not in_pred

    if tp == fp == fn == 0:
        return EntityScore(precision=1.0, recall=1.0, f1=1.0, per_category={})
    precision, recall, f1 = _prf(tp, fp, fn)
    per_category = {}
    for category in sorted(cat_counts):
        ctp, cfp, cfn = cat_counts[category]
        cp, cr, cf = _prf(ctp, cfp, cfn)
        per_category[category] = ClassScore(cp, cr, cf, support=ctp + cfn)
    return EntityScore(precision=precision, recall=recall, f1=f1, per_category=per_category)


def _score_table(head: str, rows: list[tuple[str, ClassScore | EntityScore]]) -> list[str]:
    """A header, a rule, and one aligned precision/recall/F1/support line
    per (name, score); a score without a support leaves that column blank."""
    width = max(len(head), *(len(name) for name, _ in rows))
    lines = [f"{head:<{width}}  {'precision':>9}  {'recall':>9}  {'f1':>9}  {'support':>7}"]
    lines.append("-" * len(lines[0]))
    for name, s in rows:
        lines.append(
            f"{name:<{width}}  {s.precision:>9.4f}  {s.recall:>9.4f}  "
            f"{s.f1:>9.4f}  {s.support if isinstance(s, ClassScore) else '':>7}"
        )
    return lines


def _score_record(key: str, name: str, s: ClassScore | EntityScore) -> dict:
    record = {key: name, "precision": s.precision, "recall": s.recall, "f1": s.f1}
    if isinstance(s, ClassScore):
        record["support"] = s.support
    return record


def format_eval_report(report: EvalReport) -> str:
    """Aligned UTF-8 table of an EvalReport, averaging note included."""
    lines = _score_table("class", list(report.per_class.items()))
    lines.append("-" * len(lines[0]))
    lines.append(f"accuracy    {report.accuracy:.4f}")
    lines.append(f"macro f1    {report.macro_f1:.4f}")
    lines.append(f"weighted f1 {report.weighted_f1:.4f}")
    lines.append(f"note: {AVERAGING_NOTE}")
    return "\n".join(lines) + "\n"


def eval_report_records(report: EvalReport) -> list[dict]:
    """Line-record mirror of an EvalReport."""
    records = [_score_record("class", cls, s) for cls, s in report.per_class.items()]
    records.append(
        {
            "accuracy": report.accuracy,
            "macro_f1": report.macro_f1,
            "weighted_f1": report.weighted_f1,
            "note": AVERAGING_NOTE,
        }
    )
    return records


def format_entity_score(score: EntityScore) -> str:
    """Aligned UTF-8 table of an EntityScore."""
    lines = _score_table("category", [*score.per_category.items(), ("ALL", score)])
    lines.append("note: exact-match micro-averaged entity scoring")
    return "\n".join(lines) + "\n"


def entity_score_records(score: EntityScore) -> list[dict]:
    """Line-record mirror of an EntityScore; ``__all__`` is the micro average."""
    items = [*score.per_category.items(), ("__all__", score)]
    return [_score_record("category", name, s) for name, s in items]
