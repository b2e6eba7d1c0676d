"""Prompt materialization: three zero-shot families plus the ICL variant.

Template wording lives in external versioned text files (see templates/),
never in code, so it can be audited and swapped without a release. Rendering
is pure and deterministic: the same (template version, seed, corpus) always
produces byte-identical prompts.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import (SCORE_BINS, Field, LangPair, ScoreBin, Segment, Split,
                     bin_of, json_fields, read_json)
from .errors import (EmptyBin, ExemplarCountMismatch, ExemplarLeakage,
                     PlaceholderUnresolved, TemplateInvalid, TemplateMissing)
from .seeding import rank_key

log = logging.getLogger(__name__)

__all__ = [
    "TemplateId", "ZERO_SHOT_TEMPLATES", "ICL_TEMPLATES", "ICL_EXEMPLAR_COUNTS",
    "IclConfig", "PromptTemplate", "IclExemplar", "RenderedPrompt",
    "LANGUAGE_NAMES", "language_name", "load_templates", "prompt_lines",
    "fill_template", "render_zero_shot", "select_icl_exemplars", "render_icl",
]


class TemplateId(Enum):
    GEMBA = "gemba"
    TE = "te"
    AG = "ag"
    AG_ICL3 = "ag_icl3"
    AG_ICL5 = "ag_icl5"
    AG_ICL7 = "ag_icl7"


ZERO_SHOT_TEMPLATES = (TemplateId.GEMBA, TemplateId.TE, TemplateId.AG)
ICL_TEMPLATES = (TemplateId.AG_ICL3, TemplateId.AG_ICL5, TemplateId.AG_ICL7)
ICL_EXEMPLAR_COUNTS = {TemplateId.AG_ICL3: 3, TemplateId.AG_ICL5: 5,
                       TemplateId.AG_ICL7: 7}

# Range-guideline templates must spell out all five score ranges.
AG_FAMILY = (TemplateId.AG, TemplateId.AG_ICL3, TemplateId.AG_ICL5,
             TemplateId.AG_ICL7)

_TARGET_PLACEHOLDERS = ("source_lang", "target_lang", "source_text",
                        "translation_text")


class IclConfig(Enum):
    ICL3 = 3
    ICL5 = 5
    ICL7 = 7

    @classmethod
    def for_template(cls, template_id: TemplateId) -> "IclConfig":
        return cls(ICL_EXEMPLAR_COUNTS[template_id])


# Built-in names for the eight studied pairs plus the high-resource
# comparison languages used by the fertility analysis.
LANGUAGE_NAMES = {
    "en": "English",
    "gu": "Gujarati",
    "hi": "Hindi",
    "mr": "Marathi",
    "ta": "Tamil",
    "te": "Telugu",
    "et": "Estonian",
    "ne": "Nepali",
    "si": "Sinhala",
    "de": "German",
    "zh": "Chinese",
    "ro": "Romanian",
}


def language_name(code: str) -> str:
    return LANGUAGE_NAMES.get(code, code)


@dataclass(frozen=True)
class PromptTemplate:
    id: TemplateId
    body: str
    version: str

    def required_placeholders(self) -> tuple[str, ...]:
        if self.id in ICL_TEMPLATES:
            return _TARGET_PLACEHOLDERS + ("examples",)
        return _TARGET_PLACEHOLDERS

    def validate(self) -> None:
        for name in self.required_placeholders():
            count = self.body.count("{%s}" % name)
            if count != 1:
                raise PlaceholderUnresolved(
                    f"template {self.id.value}: placeholder {{{name}}} occurs "
                    f"{count} times, expected exactly once")
        if self.id in AG_FAMILY:
            for b in SCORE_BINS:
                if b.label not in self.body:
                    raise TemplateInvalid(
                        f"template {self.id.value}: missing guideline clause "
                        f"for score range {b.label}")


def _default_template_dir() -> Path:
    return Path(resources.files("qeharness") / "templates")


_MANIFEST_FIELDS = {t.value: Field((dict,), optional=True) for t in TemplateId}
_ENTRY_FIELDS = {"file": Field((str,)), "version": Field((str,))}


def _template_entries(manifest) -> dict:
    """The template manifest's entries by id, each checked."""
    return {tid: json_fields(entry, _ENTRY_FIELDS) for tid, entry
            in json_fields(manifest, _MANIFEST_FIELDS).items()}


def load_templates(directory: str | Path | None = None,
                   ) -> dict[TemplateId, PromptTemplate]:
    """Read the template manifest and every template body, validated.

    The manifest maps template id to file and version; several ids may share
    one file (the ICL variants differ only in exemplar count).
    """
    directory = Path(directory) if directory else _default_template_dir()
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise TemplateMissing(f"no template manifest at {manifest_path}")
    manifest = read_json(manifest_path, _template_entries, TemplateInvalid)

    templates = {}
    for tid in TemplateId:
        entry = manifest.get(tid.value)
        if entry is None:
            raise TemplateMissing(f"manifest has no entry for {tid.value}")
        body_path = directory / entry["file"]
        if not body_path.is_file():
            raise TemplateMissing(f"template file missing: {body_path}")
        template = PromptTemplate(id=tid,
                                  body=body_path.read_text(encoding="utf-8"),
                                  version=entry["version"])
        template.validate()
        templates[tid] = template
    return templates


@dataclass(frozen=True)
class IclExemplar:
    """A scored train-split example shown inside an ICL prompt."""

    segment: Segment
    bin: ScoreBin

    def __post_init__(self) -> None:
        if self.segment.split is not Split.TRAIN:
            raise ExemplarLeakage(
                f"segment {self.segment.id} of {self.segment.pair} is from the "
                f"{self.segment.split.value} split; exemplars must be train")


@dataclass(frozen=True)
class RenderedPrompt:
    template: TemplateId
    text: str
    exemplars: tuple[IclExemplar, ...]
    target_segment_id: int
    pair: str
    seed: int
    head: str = field(default="", repr=False, compare=False)  # combo's prefix

    def to_dict(self) -> dict:
        return {
            "pair": self.pair,
            "segment_id": self.target_segment_id,
            "template": self.template.value,
            "seed": self.seed,
            "text": self.text,
        }


def prompt_lines(prompts: Iterable[RenderedPrompt]) -> Iterator[str]:
    """Each prompt's line, json.dumps(p.to_dict(), sort_keys=True) + "\\n".
    JSON escapes text per code point (RFC 8259 section 7), so the head a
    combo's prompts share is escaped once; each line adds its tail's. A
    text that does not start with its head is escaped whole."""
    escape = json.encoder.encode_basestring_ascii  # json.dumps' own
    head, escaped = None, ""
    for p in prompts:
        if p.head is not head:
            head, escaped = p.head, escape(p.head)[:-1]
        # the escaped head and where the tail starts, or the whole text
        opening, start = ((escaped, len(head)) if p.text.startswith(head)
                          else ('"', 0))
        yield (f'{{"pair": {escape(p.pair)}, "seed": {p.seed!r}, '
               f'"segment_id": {p.target_segment_id!r}, "template": '
               f'{escape(p.template.value)}, "text": {opening}'
               f'{escape(p.text[start:])[1:]}}}\n')


# an ICL prompt's fill order; a value may hold a later placeholder's name
_ICL_FILL_ORDER = ("source_lang", "target_lang", "examples", "source_text",
                   "translation_text")


def fill_template(template: PromptTemplate, pair: LangPair,
                  examples: str | None = None,
                  ) -> tuple[str, tuple[str, str, str] | None]:
    """template's body for pair: the language names (and an ICL block)
    filled in, and the pieces it splits into around the first {source_text}
    and the next {translation_text}. The pieces are None when either
    placeholder is missing or a piece holds a "{", as then a placeholder
    could survive splicing a segment's texts between them."""
    text = template.body.replace("{source_lang}",
                                 language_name(pair.source_lang), 1)
    text = text.replace("{target_lang}", language_name(pair.target_lang), 1)
    if examples is not None:
        text = text.replace("{examples}", examples, 1)
    pre, found, rest = text.partition("{source_text}")
    mid, found_too, post = rest.partition("{translation_text}")
    spliced = found and found_too and "{" not in pre + mid + post
    return text, (pre, mid, post) if spliced else None


def _render(template: PromptTemplate, segments: Iterable[Segment], seed: int,
            exemplars: tuple[IclExemplar, ...],
            examples: str | None) -> list[RenderedPrompt]:
    """One prompt per segment, from fill_template's body and pieces for
    each distinct pair. A segment is spliced into the pieces when its texts
    hold no "{"; else each placeholder's first occurrence is filled in
    _ICL_FILL_ORDER (examples only for ICL) and a survivor raises."""
    names = _TARGET_PLACEHOLDERS if examples is None else _ICL_FILL_ORDER
    combos: dict = {}  # pair -> (str(pair), filled body, pieces or None)
    prompts = []
    for seg in segments:
        combo = combos.get(seg.pair)
        if combo is None:
            combo = combos[seg.pair] = (
                str(seg.pair), *fill_template(template, seg.pair, examples))
        pair, filled, pieces = combo
        if pieces and "{" not in seg.source + seg.translation:
            pre, mid, post = pieces
            text, head = f"{pre}{seg.source}{mid}{seg.translation}{post}", pre
        else:
            text = filled.replace("{source_text}", seg.source, 1)
            text = text.replace("{translation_text}", seg.translation, 1)
            for name in names:
                if "{%s}" % name in text:
                    raise PlaceholderUnresolved(
                        f"placeholder {{{name}}} survived substitution")
            head = ""
        prompts.append(RenderedPrompt(template.id, text, exemplars, seg.id,
                                      pair, seed, head))
    return prompts


def render_zero_shot(template: PromptTemplate, segments: Iterable[Segment],
                     seed: int = 0) -> list[RenderedPrompt]:
    """Materialize a zero-shot prompt for each segment."""
    if template.id not in ZERO_SHOT_TEMPLATES:
        raise ValueError(f"{template.id.value} is not a zero-shot template")
    return _render(template, segments, seed, (), None)


_ICL3_BINS = (ScoreBin.B0_30, ScoreBin.B71_90, ScoreBin.B91_100)


def select_icl_exemplars(train: list[Segment] | tuple[Segment, ...],
                         config: IclConfig, seed: int, *,
                         fallback: bool = True) -> list[IclExemplar]:
    """Pick scored exemplars from the five DA score bins.

    ICL5 takes one exemplar per bin; ICL3 drops the 31-50 and 51-70 bins;
    ICL7 is the ICL5 set plus one extra distinct exemplar from the lowest
    and one from the highest non-empty bin. Within a bin the pick is uniform
    under a hash keyed by (seed, pair, bin, segment id), so results are
    reproducible across platforms and insensitive to input ordering.

    An unfillable bin raises EmptyBin, unless fallback is on, in which case
    the nearest non-empty bin substitutes and a warning is logged. Returned
    exemplars are ordered ascending by bin, then by score and id.
    """
    if not train:
        raise EmptyBin("any")
    for seg in train:
        if seg.split is not Split.TRAIN:
            raise ExemplarLeakage(
                f"segment {seg.id} is from the {seg.split.value} split")

    pair = str(train[0].pair)
    # each bin's segments by id, at the bin's index; the first occurrence
    # of an id wins
    by_bin: list[dict[int, Segment]] = [{} for _ in SCORE_BINS]
    for seg in train:
        by_bin[bin_of(seg.da_mean).index].setdefault(seg.id, seg)

    used: set[int] = set()

    def best_unused(label: str, source: ScoreBin) -> Segment | None:
        members = by_bin[source.index]
        for seg_id in _ranked_ids(seed, pair, label, tuple(members)):
            if seg_id not in used:
                return members[seg_id]
        return None

    def pick(target: ScoreBin) -> IclExemplar:
        actual = target
        chosen = best_unused(target.label, target)
        if chosen is None:
            if not fallback:
                raise EmptyBin(target.label)
            actual = _nearest_populated(by_bin, target, used)
            log.warning("bin %s has no unused exemplar for %s; substituting "
                        "from %s", target.label, pair, actual.label)
            # a substitute is still ranked under the bin it stands in for
            chosen = best_unused(target.label, actual)
        used.add(chosen.id)
        return IclExemplar(chosen, actual)

    base_bins = _ICL3_BINS if config is IclConfig.ICL3 else SCORE_BINS
    exemplars = [pick(b) for b in base_bins]

    if config is IclConfig.ICL7:
        populated = [b for b in SCORE_BINS if by_bin[b.index]]
        exemplars.append(pick(populated[0]))    # extra from lowest range
        exemplars.append(pick(populated[-1]))   # extra from highest range

    exemplars.sort(key=_exemplar_order)
    return exemplars


@functools.lru_cache(maxsize=64)
def _ranked_ids(seed: int, pair: str, label: str,
                ids: tuple[int, ...]) -> tuple[int, ...]:
    """ids best rank first under the (seed, pair, bin label) hash.

    The three ICL templates of a pair draw from the same bins, so each bin
    is hashed once per (seed, pair) rather than once per pick. The key holds
    ids, not segments, which are costly to hash.
    """
    return tuple(sorted(ids, key=lambda i: rank_key(seed, pair, label, i)))


def _nearest_populated(by_bin: list[dict[int, Segment]],
                       target: ScoreBin, used: set[int]) -> ScoreBin:
    candidates = [b for b in SCORE_BINS
                  if any(i not in used for i in by_bin[b.index])]
    if not candidates:
        raise EmptyBin(target.label)
    # closest bin wins; ties resolve toward the lower range
    return min(candidates, key=lambda b: (abs(b.index - target.index), b.index))


def _exemplar_order(e: IclExemplar):
    return (e.bin.index, e.segment.da_mean, e.segment.id)


_EXEMPLAR_BLOCK = ('Source text: "{source}"\n'
                   'Translation: "{translation}"\n'
                   "Score: {score:.1f}")


def render_icl(template: PromptTemplate, exemplars: list[IclExemplar],
               segments: Iterable[Segment],
               seed: int = 0) -> list[RenderedPrompt]:
    """Materialize an ICL prompt for each segment: scored exemplars, then
    the unscored target.

    Exemplars render in bin-ascending order with their gold score at one
    decimal, matching the extraction grammar.
    """
    if template.id not in ICL_TEMPLATES:
        raise ValueError(f"{template.id.value} is not an ICL template")
    expected = ICL_EXEMPLAR_COUNTS[template.id]
    if len(exemplars) != expected:
        raise ExemplarCountMismatch(
            f"{template.id.value} carries {len(exemplars)} exemplars, "
            f"expected {expected}")
    ordered = tuple(sorted(exemplars, key=_exemplar_order))
    block = "\n\n".join(
        _EXEMPLAR_BLOCK.format(source=e.segment.source,
                               translation=e.segment.translation,
                               score=e.segment.da_mean)
        for e in ordered)
    return _render(template, segments, seed, ordered, block)
