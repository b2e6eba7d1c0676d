"""Spans around qeharness's layer entry points, recorded from outside.

The tracer replaces each entry point under the name its caller looks it up
by (pipeline and sft_export import them into their own namespace), records
one span per call with the id of the span that caused it, and keeps every
span in memory until the benchmark writes them out. SHA-256 digests are
counted, not spanned: there are hundreds of thousands per run.

A layer's self time is its spans' duration minus the part of that interval
its child spans cover. Spans opened on a dispatch worker thread have no
parent on their own thread; their parent is the span open on the thread
that installed the tracer, which is the complete_batch call that started
them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import qeharness.gateway as gateway
import qeharness.pipeline as pipeline
import qeharness.seeding as seeding
import qeharness.sft_export as sft_export


def _observe_dispatch(counts, args, outputs) -> None:
    counts["gateway.requests"] += len(args[1])
    for out in outputs:
        if out.transport_status != gateway.TRANSPORT_OK:
            counts["gateway.failed"] += 1
        if out.transport_status == gateway.FAIL_CONTEXT_OVERFLOW:
            counts["gateway.context_overflow"] += 1


def _observe_extraction(counts, args, result) -> None:
    results, ledger = result
    counts["extraction.outputs"] += len(results)
    counts["extraction.excluded"] += ledger.excluded_count


# (owner, attribute, span name, observer): the entry points the benchmark
# traces. An observer sees the call's arguments and result after the span
# closes and adds to the tracer's counts.
ENTRY_POINTS = (
    (pipeline, "load_corpora", "corpus.load", None),
    (pipeline, "select_icl_exemplars", "prompts.select_icl", None),
    (pipeline, "render_zero_shot", "prompts.render", None),
    (pipeline, "render_icl", "prompts.render", None),
    (pipeline, "complete_batch", "gateway.complete_batch", _observe_dispatch),
    (pipeline, "extract_batch", "extraction.extract_batch",
     _observe_extraction),
    (pipeline, "evaluate", "metrics.evaluate", None),
    (sft_export, "render_zero_shot", "prompts.render", None),
    (sft_export, "seeded_order", "seeding.seeded_order", None),
    (gateway.MockBackend, "generate_once", "gateway.generate_once", None),
    (gateway.HttpBackend, "generate_once", "gateway.generate_once", None),
)


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        # (span id, parent id, name, start, end), perf_counter seconds
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)  # next() on a count is atomic
        self._local = threading.local()
        self._root_stack = self._stack()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        root = self._root_stack
        parent = stack[-1] if stack else (root[-1] if root else 0)
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn, observer=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observer is not None:
                with self._lock:
                    observer(self.counts, args, result)
            return result
        return traced

    def _count(self, name: str, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name, observer in ENTRY_POINTS:
            self._patch(owner, attr,
                        self.wrap(name, getattr(owner, attr), observer))
        # rank_key resolves stable_hash in the seeding module at call time
        self._patch(seeding, "stable_hash",
                    self._count("seeding.sha256_calls", seeding.stable_hash))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and total self time (s)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, _, name, start, end in spans:
        layer = layers[name]
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += (end - start) - _covered(children.get(span_id, []),
                                                    start, end)
    return layers
