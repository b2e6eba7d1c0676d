"""End-to-end experiment orchestration and result-table rendering.

A run is fully determined by its manifest (up to endpoint nondeterminism):
corpora, templates, seeds, inference settings, and optional mock policy.
Artifacts land in one directory per run under names that encode template
version, seed, and model; a fingerprint of each combo's inputs decides on
resume whether its artifacts can be kept as they are. Wall-clock
timestamps appear only in the run log, never in artifacts, so mock-backed
runs are byte-identical end to end.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import closing, nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .corpus import (Corpus, load_corpora, read_records, write_json,
                     write_lines)
from .errors import EndpointMissing, ManifestError, HarnessError
from .extraction import (ExclusionLedger, ExtractionResult, extract_batch,
                         extraction_lines, untrustworthy)
from .gateway import (EchoScore, Fail, Fixed, Garbage, HttpBackend,
                      InferenceConfig, ModelOutput, MockBackend, complete_batch,
                      gold_map, output_lines)
from .metrics import CorrelationReport, Significance, evaluate
from .prompts import (ICL_TEMPLATES, IclConfig, TemplateId, ZERO_SHOT_TEMPLATES,
                      load_templates, prompt_lines, render_icl,
                      render_zero_shot, select_icl_exemplars)

__all__ = [
    "ERROR_TAXONOMY", "RunManifest", "RunResult", "run", "build_mock_policy",
    "parse_mock_arg", "load_listed_corpora", "render_prompts",
    "ResultTable", "TableCell", "build_result_table", "render_table",
    "render_detailed_table", "worst_deviations", "write_worst_tsv",
    "PAIR_ORDER",
]

# Error-annotation vocabulary shipped for the manual labeling of worst
# deviations; the harness never assigns these labels itself.
ERROR_TAXONOMY = (
    "Incorrect term",
    "Use of Entity",
    "Syntactic error",
    "Long-text",
    "Missing information",
    "Incomplete sentence",
    "Use of abbreviation",
    "Transliteration",
)

# Presentation order for the studied pairs; English-target pairs last.
PAIR_ORDER = ("en-gu", "en-hi", "en-mr", "en-ta", "en-te",
              "et-en", "ne-en", "si-en")


# JSON types a run manifest's typed fields accept, matched exactly (a bool
# is no int here), with how an error names them
_FIELD_TYPES = {
    "corpora_manifest": ((str,), "a string"),
    "out_dir": ((str,), "a string"),
    "template_dir": ((str, type(None)), "a string or null"),
    "seed": ((int,), "an integer"),
    "icl_seed": ((int, type(None)), "an integer or null"),
    "mock": ((dict, type(None)), "an object or null"),
    "resume": ((bool,), "true or false"),
}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run; serialized alongside outputs."""

    corpora_manifest: str
    templates: tuple[TemplateId, ...]
    out_dir: str
    seed: int = 0
    icl_seed: int | None = None       # defaults to seed
    pairs: tuple[str, ...] | None = None
    inference: dict = field(default_factory=dict)
    mock: dict | None = None
    template_dir: str | None = None
    resume: bool = False

    def to_dict(self) -> dict:
        return {**asdict(self), "templates": [t.value for t in self.templates],
                "pairs": list(self.pairs) if self.pairs else None}

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        """The manifest a JSON object encodes; keys that name no field are
        ignored, and a field of the wrong type raises ManifestError."""
        if not isinstance(d, dict):
            raise ManifestError("run manifest must be a JSON object")
        try:
            templates = tuple(TemplateId(t) for t in d["templates"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"bad templates field: {exc}") from exc
        if "corpora_manifest" not in d or "out_dir" not in d:
            raise ManifestError("manifest needs corpora_manifest and out_dir")
        for name, (types, wanted) in _FIELD_TYPES.items():
            if name in d and type(d[name]) not in types:
                raise ManifestError(f"{name} must be {wanted}, got {d[name]!r}")
        pairs = d.get("pairs")
        if pairs is not None and not (isinstance(pairs, list) and all(
                isinstance(p, str) for p in pairs)):
            raise ManifestError(
                f"pairs must be a list of strings or null, got {pairs!r}")
        known = {f.name for f in fields(cls)}
        given = {k: v for k, v in d.items() if k in known}
        return cls(**{**given, "templates": templates,
                      "pairs": tuple(pairs) if pairs else None})

    @classmethod
    def from_json(cls, path: str | Path) -> "RunManifest":
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"cannot read run manifest {path}: {exc}") from exc


def build_mock_policy(spec: dict):
    """Construct a mock policy from its manifest encoding, with defaults.
    An offset, p or segment id that does not parse raises ManifestError."""
    kind = spec.get("policy")
    try:
        if kind == "echo-score":
            offset = spec.get("offset")
            if offset is None:
                return EchoScore()
            offset = float(offset)
            return EchoScore(transform=lambda g: round(g + offset, 1))
        if kind == "fixed":
            return Fixed(spec.get("text", ""))
        if kind == "garbage":
            return Garbage(float(spec.get("p", 0.1)))
        if kind == "fail":
            return Fail(segment_ids=frozenset(
                int(i) for i in spec.get("segment_ids", [])))
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"bad {kind} mock policy {spec!r}: {exc}") from exc
    raise ManifestError(f"unknown mock policy {kind!r}")


# --mock KIND:VALUE -> (manifest field, parser) for VALUE
_MOCK_ARGS = {
    "echo-score": ("offset", float),
    "fixed": ("text", str),
    "garbage": ("p", float),
    "fail": ("segment_ids", lambda v: [int(i) for i in v.split(",") if i]),
}


def parse_mock_arg(text: str) -> dict:
    """The manifest encoding of a --mock value such as echo-score:5,
    fixed:TEXT, garbage:0.1 or fail:3,5. A bare KIND leaves its value out,
    so build_mock_policy's default applies."""
    kind, _, rest = text.partition(":")
    if kind not in _MOCK_ARGS:
        raise ManifestError(f"unknown mock policy {text!r}")
    name, parse = _MOCK_ARGS[kind]
    try:
        return {"policy": kind, name: parse(rest)} if rest else {"policy": kind}
    except ValueError as exc:
        raise ManifestError(f"bad --mock value {text!r}: {exc}") from exc


def load_listed_corpora(corpora_manifest: str | Path,
                        pairs: list[str] | None) -> list[Corpus]:
    """The corpora of the listed pairs, or of all pairs without a list; a
    listed pair the corpus manifest lacks is a ManifestError."""
    corpora = load_corpora(corpora_manifest, pairs=pairs)
    unknown = set(pairs or ()) - {str(c.pair) for c in corpora}
    if unknown:
        raise ManifestError(f"no corpus-manifest entry for {sorted(unknown)}")
    return corpora


def render_prompts(corpus: Corpus, template, seed: int,
                   icl_seed: int | None = None) -> list:
    """One prompt per test segment. ICL templates draw their exemplars from
    the train split under icl_seed, which defaults to seed."""
    if template.id in ZERO_SHOT_TEMPLATES:
        return render_zero_shot(template, corpus.test, seed)
    exemplars = select_icl_exemplars(
        list(corpus.train), IclConfig.for_template(template.id),
        seed if icl_seed is None else icl_seed)
    return render_icl(template, exemplars, corpus.test, seed)


@dataclass
class RunResult:
    run_dir: Path
    reports: list[CorrelationReport]
    ledgers: list[ExclusionLedger]
    inference_calls: int
    errors: dict  # (pair, template) -> error string


def _context_default(template_id: TemplateId) -> int:
    return 4096 if template_id in ICL_TEMPLATES else 1024


def run(manifest: RunManifest, backend=None) -> RunResult:
    """Execute the manifest: render, infer, extract, evaluate, persist.

    Manifest and corpus problems fail fast, before the run directory is
    written: no templates, an unknown pair, or unusable inference settings
    or endpoint URL raise ManifestError. Per-item inference failures are
    recorded in the outputs and ledger without aborting.

    Each finished combo leaves a marker, fingerprints/<stem>.json, holding
    its fingerprint (_combo_fingerprint) and the SHA-256 of its four
    artifacts. With resume on, a combo whose marker matches and whose
    artifacts still hash to the recorded digests is skipped: its report and
    ledger are read back and nothing is rendered, dispatched or written.
    Otherwise the combo runs again, reusing persisted outputs segment by
    segment only when its marker names the same fingerprint; a missing
    marker, or one naming another fingerprint, reuses none.
    """
    if not manifest.templates:
        raise ManifestError("manifest lists no templates")
    try:
        base_cfg = InferenceConfig(**manifest.inference)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"bad inference settings: {exc}") from exc
    owned = nullcontext()  # closes the backend built here when the run ends
    if backend is None and manifest.mock is None and base_cfg.endpoint_url:
        try:
            backend = HttpBackend(base_cfg)
        except EndpointMissing as exc:
            raise ManifestError(f"bad endpoint_url: {exc}") from exc
        owned = closing(backend)

    templates = load_templates(manifest.template_dir)
    corpora = load_listed_corpora(manifest.corpora_manifest, manifest.pairs)
    if backend is None:
        if manifest.mock is None:
            raise EndpointMissing(
                "manifest has neither an endpoint_url nor a mock policy")
        gold = gold_map(seg for corpus in corpora for seg in corpus.test)
        backend = MockBackend(build_mock_policy(manifest.mock), gold=gold,
                              seed=manifest.seed)

    out = Path(manifest.out_dir)
    for sub in ("prompts", "outputs", "extractions", "reports", "fingerprints"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    write_json(out / "manifest.json", manifest.to_dict())

    log_path = out / "log.txt"
    reports: list[CorrelationReport] = []
    ledgers: list[ExclusionLedger] = []
    errors: dict = {}
    dispatched_total = 0

    with owned, log_path.open("a", encoding="utf-8") as run_log:
        def log(msg: str) -> None:
            run_log.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} {msg}\n")

        log(f"run start: {len(corpora)} pairs, "
            f"{len(manifest.templates)} templates")
        for corpus in corpora:
            for tid in manifest.templates:
                dispatched, report, ledger, error = _run_combo(
                    manifest, corpus, tid, templates[tid], base_cfg, backend,
                    out, log)
                dispatched_total += dispatched
                ledgers.append(ledger)
                if report is not None:
                    reports.append(report)
                if error is not None:
                    errors[(str(corpus.pair), tid.value)] = error
        log(f"run end: {dispatched_total} prompts dispatched")

    summary = {
        "reports": [r.to_dict() for r in reports],
        "ledgers": [ledger.to_dict() for ledger in ledgers],
        "errors": {f"{pair}/{tid}": msg
                   for (pair, tid), msg in sorted(errors.items())},
        "inference_calls": dispatched_total,
    }
    write_json(out / "summary.json", summary)
    return RunResult(run_dir=out, reports=reports, ledgers=ledgers,
                     inference_calls=dispatched_total, errors=errors)


def _run_combo(manifest: RunManifest, corpus: Corpus, tid: TemplateId,
               template, base_cfg: InferenceConfig, backend, out: Path, log):
    pair = str(corpus.pair)
    seed = manifest.seed
    cfg = base_cfg
    if "max_context_tokens" not in manifest.inference:
        cfg = replace(cfg, max_context_tokens=_context_default(tid))

    stem = f"{pair}__{tid.value}__{_safe(cfg.model_name)}__seed{seed}"
    artifacts = {
        "prompts": out / "prompts" / f"{pair}__{tid.value}__v{template.version}__seed{seed}.jsonl",
        "outputs": out / "outputs" / f"{stem}.jsonl",
        "extractions": out / "extractions" / f"{stem}.jsonl",
        "report": out / "reports" / f"{stem}.json",
    }
    marker_path = out / "fingerprints" / f"{stem}.json"
    fingerprint = _combo_fingerprint(manifest, corpus, template, cfg)
    marker = _read_marker(marker_path) if manifest.resume else {}
    matches = marker.get("fingerprint") == fingerprint
    if matches and _artifacts_unchanged(artifacts, marker.get("artifacts")):
        doc = json.loads(artifacts["report"].read_text(encoding="utf-8"))
        report = (CorrelationReport.from_dict(doc["report"])
                  if doc["report"] is not None else None)
        log(f"{pair}/{tid.value}: skipped, finished under the same "
            "fingerprint")
        return 0, report, ExclusionLedger.from_dict(doc["ledger"]), doc.get("error")

    # Only outputs the marker vouches for are kept, to be reused segment by
    # segment. Claiming the combo before anything is rewritten keeps a run
    # killed in the middle from leaving outputs under another's marker.
    if not matches:
        artifacts["outputs"].unlink(missing_ok=True)
    write_json(marker_path, {"fingerprint": fingerprint, "artifacts": {}})

    prompts = render_prompts(corpus, template, seed, manifest.icl_seed)
    digests = {"prompts": write_lines(artifacts["prompts"],
                                      prompt_lines(prompts))}

    persisted: dict[int, ModelOutput] = {}
    if artifacts["outputs"].exists():
        for output in read_records(artifacts["outputs"], ModelOutput.from_dict):
            persisted[output.prompt_ref.segment_id] = output

    todo = [p for p in prompts if p.target_segment_id not in persisted]
    fresh = complete_batch(cfg, todo, backend)
    # a prompt refused before sending (context overflow) made no attempt
    dispatched = sum(1 for o in fresh if o.attempt_count > 0)
    by_segment = dict(persisted)
    for output in fresh:
        by_segment[output.prompt_ref.segment_id] = output
    outputs = [by_segment[p.target_segment_id] for p in prompts]
    digests["outputs"] = write_lines(artifacts["outputs"],
                                     output_lines(outputs))
    log(f"{pair}/{tid.value}: {dispatched} dispatched, "
        f"{len(persisted)} resumed")

    results, ledger = extract_batch(outputs, model=cfg.model_name)
    digests["extractions"] = write_lines(artifacts["extractions"],
                                         extraction_lines(results))

    gold_by_id = {seg.id: seg.da_mean for seg in corpus.test}
    report = None
    error = None
    try:
        report = evaluate(gold_by_id, results, pair=pair, template=tid.value,
                          model=cfg.model_name)
        doc = {"report": report.to_dict(), "ledger": ledger.to_dict()}
    except HarnessError as exc:
        error = f"{type(exc).__name__}: {exc}"
        doc = {"report": None, "ledger": ledger.to_dict(), "error": error}
        log(f"{pair}/{tid.value}: evaluation failed: {error}")
    digests["report"] = write_json(artifacts["report"], doc)
    write_json(marker_path, {"fingerprint": fingerprint, "artifacts": digests})
    return dispatched, report, ledger, error


def _combo_fingerprint(manifest: RunManifest, corpus: Corpus, template,
                      cfg: InferenceConfig) -> str:
    """SHA-256 over every input a (pair, template) combo's artifacts depend
    on: the template's id, version and body; the pair's TSV bytes and
    column map (Corpus.digest); seed, and for ICL the effective icl_seed;
    the reply-shaping inference settings; and the mock spec.

    Left out on purpose: out_dir, resume, paths and the transport knobs
    (timeouts, retries, max_in_flight), which change how replies arrive but
    not what they say. Also not covered: the qeharness code version and a
    backend object passed to run().
    """
    doc = {
        "template": [template.id.value, template.version, template.body],
        "corpus": corpus.digest,
        "seed": manifest.seed,
        "inference": [cfg.model_name, float(cfg.temperature),
                      cfg.max_new_tokens, cfg.max_context_tokens],
        "mock": manifest.mock,
    }
    if template.id in ICL_TEMPLATES:  # only exemplar selection reads it
        doc["icl_seed"] = (manifest.seed if manifest.icl_seed is None
                           else manifest.icl_seed)
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _read_marker(path: Path) -> dict:
    """The combo marker at path, or {} (which matches no fingerprint) when
    it is missing, unreadable or not a JSON object."""
    try:
        marker = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return marker if isinstance(marker, dict) else {}


def _artifacts_unchanged(paths: dict, recorded) -> bool:
    """Whether each artifact still hashes to the digest the marker
    recorded for it."""
    return (isinstance(recorded, dict) and recorded.keys() == paths.keys()
            and all(_sha256_of(paths[k]) == recorded[k] for k in paths))


def _sha256_of(path: Path) -> str | None:
    digest = hashlib.sha256()
    try:
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError:
        return None
    return digest.hexdigest()


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name)


# -- result tables -------------------------------------------------------------

_METRIC_ATTR = {"r": "pearson_r", "rho": "spearman_rho", "tau": "kendall_tau"}

# plain/TSV marker glyphs; the markup renderer uses real styling instead
_GLYPH_ZERO_SHOT_BEST = "*"
_GLYPH_ICL_BEST = "^"
_GLYPH_OVERALL_BEST = "#"
_GLYPH_INSIGNIFICANT = "†"  # dagger


@dataclass(frozen=True)
class TableCell:
    value: float
    zero_shot_best: bool = False
    icl_best: bool = False
    overall_best: bool = False
    insignificant: bool = False


@dataclass
class ResultTable:
    metric: str
    pairs: list[str]
    templates: list[str]
    models: list[str]
    cells: dict  # (pair, template, model) -> TableCell


def _pair_sort_key(pair: str):
    if pair in PAIR_ORDER:
        return (0, PAIR_ORDER.index(pair))
    return (1, pair)


def _axes(reports: list[CorrelationReport]):
    """(pairs, templates, models) present in reports, in table order."""
    template_order = [t.value for t in TemplateId]
    return (sorted({r.pair for r in reports}, key=_pair_sort_key),
            sorted({r.template for r in reports}, key=template_order.index),
            sorted({r.model for r in reports}))


def build_result_table(reports: list[CorrelationReport],
                       metric: str = "rho") -> ResultTable:
    """Assemble cells and markers for one coefficient.

    Markers come from the table's own values: per pair, the best zero-shot
    cell, the best ICL cell, and the best cell overall (ties go to the
    first cell in template-then-model order, so each pair gets exactly one
    of each marker). Insignificance marks every cell with p > 0.05.
    """
    if metric not in _METRIC_ATTR:
        raise ValueError(f"metric must be one of {sorted(_METRIC_ATTR)}")
    attr = _METRIC_ATTR[metric]

    pairs, templates, models = _axes(reports)

    values: dict = {}
    insig: dict = {}
    for r in reports:
        values[(r.pair, r.template, r.model)] = getattr(r, attr)
        insig[(r.pair, r.template, r.model)] = r.significance is Significance.NS

    zero_shot = {t.value for t in ZERO_SHOT_TEMPLATES}
    icl = {t.value for t in ICL_TEMPLATES}
    cells: dict = {}
    for pair in pairs:
        keys = [(pair, t, m) for t in templates for m in models
                if (pair, t, m) in values]
        zs_keys = [k for k in keys if k[1] in zero_shot]
        icl_keys = [k for k in keys if k[1] in icl]
        best_overall = max(keys, key=lambda k: values[k]) if keys else None
        best_zs = max(zs_keys, key=lambda k: values[k]) if zs_keys else None
        best_icl = max(icl_keys, key=lambda k: values[k]) if icl_keys else None
        # max() returns the first maximal key in iteration order
        for k in keys:
            cells[k] = TableCell(
                value=values[k],
                zero_shot_best=(k == best_zs),
                icl_best=(k == best_icl),
                overall_best=(k == best_overall),
                insignificant=insig[k],
            )
    return ResultTable(metric=metric, pairs=pairs, templates=templates,
                       models=models, cells=cells)


def _cell_text(cell: TableCell | None, markup: bool) -> str:
    if cell is None:
        return "—"
    text = f"{cell.value:.3f}"
    if markup:
        if cell.overall_best:
            text = f"**{text}**"
        if cell.icl_best:
            text = f"<u>{text}</u>"
        if cell.zero_shot_best:
            text += "\\*"
        if cell.insignificant:
            text += _GLYPH_INSIGNIFICANT
        return text
    if cell.zero_shot_best:
        text += _GLYPH_ZERO_SHOT_BEST
    if cell.icl_best:
        text += _GLYPH_ICL_BEST
    if cell.overall_best:
        text += _GLYPH_OVERALL_BEST
    if cell.insignificant:
        text += _GLYPH_INSIGNIFICANT
    return text


_LEGEND = ("markers: * best zero-shot | ^ best ICL | # best overall | "
           "† p > 0.05")


def _layout(header: list[str], body: list[list[str]], fmt: str,
            title: tuple[str, str] | None = None) -> str:
    """Lay out a header row and body rows as plain text, TSV or markdown.

    title, a (heading, legend) pair, opens the plain and markdown forms.
    """
    if fmt == "tsv":
        lines = ["\t".join(row) for row in [header] + body]
    elif fmt == "markdown":
        lines = [f"**{title[0]}** ({title[1]})", ""] if title else []
        lines += ["| " + " | ".join(header) + " |",
                  "|" + "|".join("---" for _ in header) + "|"]
        lines += ["| " + " | ".join(row) + " |" for row in body]
    elif fmt == "plain":
        widths = [max(len(row[i]) for row in [header] + body)
                  for i in range(len(header))]
        lines = [f"{title[0]}    {title[1]}"] if title else []
        lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip()
                  for row in [header] + body]
    else:
        raise ValueError(f"unknown table format {fmt!r}")
    return "\n".join(lines) + "\n"


def render_table(reports: list[CorrelationReport], metric: str = "rho",
                 fmt: str = "plain") -> str:
    """Render the per-pair result grid in plain text, TSV, or markup."""
    table = build_result_table(reports, metric)
    body = []
    for pair in table.pairs:
        for template in table.templates:
            row_cells = [table.cells.get((pair, template, m))
                         for m in table.models]
            if any(c is not None for c in row_cells):
                body.append([pair, template] + [
                    _cell_text(c, markup=fmt == "markdown") for c in row_cells])
    return _layout(["pair", "template"] + table.models, body, fmt,
                   (f"metric: {table.metric}", _LEGEND))


def render_detailed_table(reports: list[CorrelationReport],
                          fmt: str = "plain") -> str:
    """All three coefficients plus the exclusion column per model.

    The exclusion count is flagged with * when more than 10% of a run's
    inferences were dropped, marking the row as untrustworthy.
    """
    pairs, templates, models = _axes(reports)
    by_key = {(r.pair, r.template, r.model): r for r in reports}
    present = {(r.pair, r.template) for r in reports}

    header = ["pair", "template"]
    for model in models:
        header += [f"{model}:r", f"{model}:rho", f"{model}:tau", f"{model}:E"]

    body = []
    for pair in pairs:
        for template in templates:
            if (pair, template) not in present:
                continue
            row = [pair, template]
            for model in models:
                r = by_key.get((pair, template, model))
                if r is None:
                    row += ["—"] * 4
                    continue
                flagged = untrustworthy(r.n_excluded, r.n_used + r.n_excluded)
                row += [f"{r.pearson_r:.3f}", f"{r.spearman_rho:.3f}",
                        f"{r.kendall_tau:.3f}",
                        f"{r.n_excluded}{'*' if flagged else ''}"]
            body.append(row)
    return _layout(header, body, fmt)


# -- worst-deviation export ----------------------------------------------------

def worst_deviations(corpus: Corpus, results: list[ExtractionResult],
                     k: int) -> list[dict]:
    """The k scored rows with the largest |prediction - gold|, for manual
    error labeling."""
    by_id = {seg.id: seg for seg in corpus.test}
    rows = []
    for res in results:
        if res.score is None:
            continue
        seg = by_id.get(res.prompt_ref.segment_id)
        if seg is None:
            continue
        rows.append({
            "pair": str(seg.pair),
            "segment_id": seg.id,
            "source": seg.source,
            "translation": seg.translation,
            "gold": seg.da_mean,
            "pred": res.score,
            "abs_dev": abs(res.score - seg.da_mean),
        })
    rows.sort(key=lambda r: (-r["abs_dev"], r["segment_id"]))
    return rows[:k]


def write_worst_tsv(rows: list[dict], path: str | Path) -> None:
    lines = ["# error_label vocabulary: " + "; ".join(ERROR_TAXONOMY),
             "pair\tsegment_id\tsource\ttranslation\tgold\tpred\tabs_dev\terror_label"]
    for r in rows:
        lines.append(f"{r['pair']}\t{r['segment_id']}\t{r['source']}"
                     f"\t{r['translation']}\t{r['gold']}\t{r['pred']}"
                     f"\t{r['abs_dev']:.2f}\t")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
