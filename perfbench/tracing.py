"""Spans around calls into farsilm layers, kept in memory until the end.

A span is (id, parent, name, start, end, run id), with start and end in
process CPU seconds, the clock of every timing the benchmark reports. The
layer of a span is
the part of its name before the first dot; spans whose layer is not a
farsilm module ("bench.*") mark the benchmark's own code, so their self
time is the part of a run that no layer accounts for.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import asdict, dataclass
from time import process_time

LAYERS = (
    "corpus",
    "textnorm",
    "segmenter",
    "wordpiece",
    "pretrain_data",
    "model",
    "training",
    "finetune",
    "metrics",
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class NullTracer:
    """Records nothing; the untraced runs pass this."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = process_time()
        try:
            yield
        finally:
            end = process_time()
            self._stack.pop()
            self.spans[sid] = Span(sid, parent, name, start, end, self.run_id)

    def subtree(self, root_id: int) -> list[Span]:
        """The root span and every span below it."""
        inside = {root_id}
        out = []
        for span in self.spans:
            if span.id == root_id or span.parent in inside:
                inside.add(span.id)
                out.append(span)
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its direct children cover."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def layer_accounting(spans: list[Span]) -> dict[str, float]:
    """Self seconds per farsilm layer under one root, plus the remainder.

    The remainder ("unaccounted") is the self time of the benchmark's own
    spans, so the layer self times and it add up to the root's time.
    """
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    out["unaccounted"] = 0.0
    for span in spans:
        key = span.layer if span.layer in out else "unaccounted"
        out[key] += own[span.id]
    return out


def by_name(spans: list[Span]) -> dict[str, list[float]]:
    """Durations in seconds of every span, grouped by span name."""
    out: dict[str, list[float]] = {}
    for span in spans:
        out.setdefault(span.name, []).append(span.duration)
    return out
