"""Instruction-tuning dataset export from train splits.

Records pair a fully rendered range-guideline prompt with the gold answer
"Score: {value}" at one decimal, which the extraction grammar parses back
verbatim. Two arrangements: pooled multilingual (one file, all pairs) and
per-pair (one file each). Only the data is produced here; the adapter
hyperparameters ride along as a provenance memo and are never executed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus, Segment, staged_writes, write_json, writing
from .errors import EmptyTrainSplit
from .prompts import (PromptTemplate, TemplateId, fill_template,
                      render_zero_shot)
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

    def to_dict(self) -> dict:
        return {"instruction": self.instruction, "output": self.output,
                "meta": self.meta}


def sft_lines(records: Iterable[SftRecord]) -> Iterator[str]:
    """Each record's line: json.dumps(r.to_dict(), sort_keys=True) + "\\n"."""
    for r in records:
        yield json.dumps(r.to_dict(), sort_keys=True) + "\n"


def build_records(corpus: Corpus, template: PromptTemplate) -> list[SftRecord]:
    """Render every train segment into an instruction/answer record, in
    order, from one render call."""
    train = _train(corpus, template)
    return [SftRecord(instruction=prompt.text,
                      output=f"Score: {seg.da_mean:.1f}",
                      meta={"pair": prompt.pair, "segment_id": seg.id,
                            "template_version": template.version})
            for seg, prompt in zip(train, render_zero_shot(template, train))]


def _train(corpus: Corpus, template: PromptTemplate) -> tuple[Segment, ...]:
    """corpus's train segments, refused unless records can be built."""
    if template.id is not TemplateId.AG:
        raise ValueError("instruction records use the range-guideline template")
    if not corpus.train:
        raise EmptyTrainSplit(str(corpus.pair))
    return corpus.train


def _shuffled_lines(segments: Sequence[Segment], template: PromptTemplate,
                    seed: int) -> Iterator[str]:
    """The lines sft_lines makes of the segments' records, in the seeded
    shuffle, each made straight from its segment as it is taken. A pair's fill_template pieces are escaped once, and its line ends
    once per distinct score; a line adds the escapes of its segment's texts
    (JSON escapes per code point, so that equals escaping the whole
    instruction) and its segment_id. A segment whose texts hold a "{", or
    whose pair has no pieces, is rendered alone by render_zero_shot.

    A segment ranks by the text of str((str(seg.pair), seg.id)), made
    from its pair's entry, which is found by the id of its pair object:
    no segment hashes or formats its LangPair."""
    escape = json.encoder.encode_basestring_ascii  # json.dumps' own
    version = escape(template.version)
    outputs: dict = {}  # score -> its escaped output
    # pair -> (its rank key's opening, its escaped pieces or None,
    #          its escaped name, its line ends by score)
    pairs: dict = {}
    # id of each pair object the segments hold, which they keep alive ->
    # its entry in pairs
    by_id: dict = {}
    for pair in {id(seg.pair): seg.pair for seg in segments}.values():
        entry = pairs.get(pair)
        if entry is None:
            pieces = fill_template(template, pair)[1]
            entry = pairs[pair] = (
                f"({str(pair)!r}, ",
                pieces and [escape(piece)[1:-1] for piece in pieces],
                escape(str(pair)), {})
        by_id[id(pair)] = entry
    order = seeded_order(
        segments, seed, "sft-shuffle",
        key=lambda seg: f"{by_id[id(seg.pair)][0]}{seg.id!r})")
    for seg in order:
        _, pieces, name, ends = by_id[id(seg.pair)]
        # a zero by its repr, as 0.0 == -0.0 while they format apart
        score = seg.da_mean or repr(seg.da_mean)
        end = ends.get(score)
        if end is None:
            output = outputs.get(score)
            if output is None:
                output = outputs[score] = escape(f"Score: {seg.da_mean:.1f}")
            # the JSON after the instruction, around the segment_id
            end = ends[score] = (
                f', "meta": {{"pair": {name}, "segment_id": ',
                f', "template_version": {version}}}, '
                f'"output": {output}}}\n')
        before, after = end
        source, translation = seg.source, seg.translation
        if pieces and "{" not in source and "{" not in translation:
            pre, mid, post = pieces
            yield (f'{{"instruction": "{pre}{escape(source)[1:-1]}'
                   f'{mid}{escape(translation)[1:-1]}{post}"'
                   f'{before}{seg.id!r}{after}')
        else:
            prompt = render_zero_shot(template, [seg])[0]
            yield (f'{{"instruction": {escape(prompt.text)}'
                   f'{before}{seg.id!r}{after}')


def export(corpora: list[Corpus], config: SftConfig, out_dir: str | Path,
           template: PromptTemplate) -> dict:
    """Write the dataset files and return the export manifest.

    Pooled mode writes sft_umt.jsonl; per-pair mode writes one
    sft_ilt_{pair}.jsonl per corpus. Each line is made straight from its
    segment as the writer takes it (see _shuffled_lines), and equals
    sft_lines' formatting of its build_records record. Every file is
    finished under its temp name, unhashed, before any is moved into place
    (staged_writes), so an export that raises replaces no file and each
    file is renamed once; files are byte-identical for a
    fixed shuffle seed. The manifest records per-pair counts and the
    hyperparameter memo, and is written alongside.
    """
    out_dir = Path(out_dir)
    with writing(out_dir):
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

    with staged_writes() as write:
        for key, name in files.items():
            write(out_dir / name, _shuffled_lines(parts[key], template,
                                                  config.shuffle_seed))

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
