"""Instruction-tuning dataset export from train splits.

Records pair a fully rendered range-guideline prompt with the gold answer
"Score: {value}" at one decimal, which the extraction grammar parses back
verbatim. Two arrangements: pooled multilingual (one file, all pairs) and
per-pair (one file each). Only the data is produced here; the adapter
hyperparameters ride along as a provenance memo and are never executed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus, Segment, write_json, write_lines
from .errors import EmptyTrainSplit
from .prompts import PromptTemplate, TemplateId, render_zero_shot
from .seeding import seeded_order

__all__ = [
    "SftMode", "SftConfig", "SftRecord", "HYPERPARAMETER_MEMO",
    "build_records", "sft_lines", "export",
]

# Fixed adapter settings recorded for provenance with every export.
HYPERPARAMETER_MEMO = {
    "lora_rank": 64,
    "quantization": "4-bit",
    "precision": "fp16",
}

# records rendered and written at a time: the 75,000 instructions of
# perfbench's pooled export take 168 MB, a chunk of them about 9 MB
_CHUNK = 4096


class SftMode(Enum):
    UMT = "umt"  # unified multilingual: all pairs pooled in one file
    ILT = "ilt"  # independent language-pair: one file per pair


@dataclass(frozen=True)
class SftConfig:
    mode: SftMode
    shuffle_seed: int = 0


@dataclass(frozen=True)
class SftRecord:
    instruction: str
    output: str
    meta: dict  # pair, segment_id, template_version
    # the instruction's prefix that every record of its pair shares
    head: str = field(default="", repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"instruction": self.instruction, "output": self.output,
                "meta": self.meta}


def sft_lines(records: Iterable[SftRecord]) -> Iterator[str]:
    """Each record's line, json.dumps(r.to_dict(), sort_keys=True) + "\\n",
    for a meta of a string pair, an int segment_id and a string
    template_version, as build_records makes. Each distinct head is escaped
    once; the pooled shuffle interleaves the pairs, so the escaped heads
    are kept by head, not just the last one."""
    escape = json.encoder.encode_basestring_ascii  # json.dumps' own
    heads: dict[str, str] = {}
    for r in records:
        head = heads.get(r.head)
        if head is None:
            head = heads[r.head] = escape(r.head)[:-1]
        meta = r.meta
        yield (f'{{"instruction": {head}'
               f'{escape(r.instruction[len(r.head):])[1:]}, "meta": '
               f'{{"pair": {escape(meta["pair"])}, "segment_id": '
               f'{meta["segment_id"]!r}, "template_version": '
               f'{escape(meta["template_version"])}}}, "output": '
               f'{escape(r.output)}}}\n')


def build_records(corpus: Corpus, template: PromptTemplate) -> list[SftRecord]:
    """Render every train segment into an instruction/answer record."""
    return list(_records(template, _train(corpus, template)))


def _train(corpus: Corpus, template: PromptTemplate) -> tuple[Segment, ...]:
    """corpus's train segments, refused unless records can be built."""
    if template.id is not TemplateId.AG:
        raise ValueError("instruction records use the range-guideline template")
    if not corpus.train:
        raise EmptyTrainSplit(str(corpus.pair))
    return corpus.train


def _records(template: PromptTemplate,
             segments: Sequence[Segment]) -> Iterator[SftRecord]:
    """The record of each segment, in order, from one render call."""
    for seg, prompt in zip(segments, render_zero_shot(template, segments)):
        yield SftRecord(instruction=prompt.text,
                        output=f"Score: {seg.da_mean:.1f}",
                        meta={"pair": prompt.pair, "segment_id": seg.id,
                              "template_version": template.version},
                        head=prompt.head)


def _shuffled_lines(segments: Sequence[Segment], template: PromptTemplate,
                    seed: int) -> Iterator[str]:
    """sft_lines of the segments' records in the seeded shuffle, rendered
    _CHUNK at a time, so at most one chunk of instructions is alive."""
    order = seeded_order(segments, seed, "sft-shuffle",
                         key=lambda seg: (str(seg.pair), seg.id))
    return sft_lines(rec for start in range(0, len(order), _CHUNK)
                     for rec in _records(template, order[start:start + _CHUNK]))


def export(corpora: list[Corpus], config: SftConfig, out_dir: str | Path,
           template: PromptTemplate) -> dict:
    """Write the dataset files and return the export manifest.

    Pooled mode writes sft_umt.jsonl; per-pair mode writes one
    sft_ilt_{pair}.jsonl per corpus. Records are rendered and written a
    chunk at a time. Every file is finished under a temp name before any
    is moved into place, so an export that raises replaces no file; files
    are byte-identical for a fixed shuffle seed. The manifest records
    per-pair counts and the hyperparameter memo, and is written alongside.
    Each line is sft_lines' formatting of a record.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if not corpora:
        raise EmptyTrainSplit("*")

    trains = {str(c.pair): _train(c, template) for c in corpora}
    counts = {pair: len(train) for pair, train in trains.items()}
    if config.mode is SftMode.UMT:
        files = {"umt": "sft_umt.jsonl"}
        parts = {"umt": [seg for train in trains.values() for seg in train]}
    else:
        files = {pair: f"sft_ilt_{pair}.jsonl" for pair in sorted(trains)}
        parts = trains

    staged: list[Path] = []  # finished files under their temp names
    try:
        for key, name in files.items():
            write_lines(out_dir / f"{name}.tmp",
                        _shuffled_lines(parts[key], template,
                                        config.shuffle_seed))
            staged.append(out_dir / f"{name}.tmp")
    except BaseException:  # an interrupt too: leave no temp file behind
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    for tmp in staged:
        os.replace(tmp, tmp.with_suffix(""))

    manifest = {
        "mode": config.mode.value,
        "shuffle_seed": config.shuffle_seed,
        "template_version": template.version,
        "counts": dict(sorted(counts.items())),
        "total_records": sum(counts.values()),
        "files": files,
        "hyperparameter_memo": dict(HYPERPARAMETER_MEMO),
    }
    write_json(out_dir / "sft_manifest.json", manifest)
    return manifest
