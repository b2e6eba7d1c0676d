"""Command-line entry point; the sole user-facing surface of the harness."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .corpus import (SCORE_BINS, Field, histogram, json_fields, load_corpora,
                     read_json, read_records, split_size_warnings, write_json,
                     write_lines, writing)
from .errors import HarnessError, ManifestError
from .extraction import (ExtractionResult, extract_batch, extraction_lines,
                         untrustworthy)
from .fertility import (load_tokenizer, measure, sample_sentences, summarize,
                        write_plot_data_tsv, write_records_jsonl,
                        write_summary_tsv)
from .gateway import ModelOutput
from .metrics import CorrelationReport, evaluate
from .pipeline import (RunManifest, parse_mock_arg, render_detailed_table,
                       render_prompts, render_table, run, worst_deviations,
                       write_worst_tsv)
from .prompts import TemplateId, load_templates, prompt_lines
from .sft_export import SftConfig, SftMode, export


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qeharness",
        description="Reference-less MT quality-estimation harness")
    parser.add_argument("--version", action="version", version=__version__)

    # one parent parser per shared flag; a subcommand takes those it reads
    seed, manifest, out = (argparse.ArgumentParser(add_help=False)
                           for _ in range(3))
    seed.add_argument("--seed", type=int, default=None,
                      help="seed for all deterministic choices (default 0; "
                           "for run, the manifest seed)")
    manifest.add_argument("--manifest", type=Path,
                          help="corpus manifest (run: the run manifest)")
    out.add_argument("--out", type=Path, help="output file or directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[manifest],
                       help="validate corpora and print score histograms")
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed row")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("render", parents=[manifest, seed, out],
                       help="dump rendered prompts as JSONL")
    p.add_argument("--template", required=True,
                   choices=[t.value for t in TemplateId])
    p.add_argument("--pairs", nargs="*", help="restrict to these pairs")
    p.add_argument("--template-dir", type=Path)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("run", parents=[manifest, seed, out],
                       help="execute a full experiment from a run manifest")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--mock", help="mock policy, e.g. echo-score, "
                                  "fixed:TEXT, garbage:0.1, fail:3,5")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("extract", parents=[out],
                       help="extract scores from persisted raw outputs")
    p.add_argument("--outputs", type=Path, required=True)
    p.add_argument("--model", default="")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("score", parents=[manifest, out],
                       help="correlation report from extraction results")
    p.add_argument("--extractions", type=Path, required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--template", required=True,
                   choices=[t.value for t in TemplateId])
    p.add_argument("--model", default="")
    p.add_argument("--dump-worst", type=positive_int, metavar="K",
                   help="also write the K largest |pred-gold| rows for "
                        "manual error labeling")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("table", parents=[out],
                       help="render result tables from a finished run")
    p.add_argument("--run-dir", type=Path, required=True)
    p.add_argument("--metric", choices=["r", "rho", "tau"], default="rho")
    p.add_argument("--style", choices=["plain", "tsv", "markdown"],
                   default="plain")
    p.add_argument("--detailed", action="store_true",
                   help="all coefficients plus the exclusion column")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("fertility", parents=[manifest, seed, out],
                       help="token-count fertility analysis over test samples")
    p.add_argument("--tokenizers", type=Path, required=True,
                   help="JSONL manifest: {name, definition} per line")
    p.add_argument("-k", "--sample-size", type=positive_int, default=100)
    p.set_defaults(func=cmd_fertility)

    p = sub.add_parser("export-sft", parents=[manifest, seed, out],
                       help="build instruction-tuning datasets from train splits")
    p.add_argument("--mode", choices=[m.value for m in SftMode], required=True)
    p.add_argument("--pair", help="restrict the export to one pair")
    p.add_argument("--template-dir", type=Path)
    p.set_defaults(func=cmd_export_sft)

    return parser


def positive_int(text: str) -> int:
    """A count flag's value; argparse refuses one below 1 (exit 2)."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _require_manifest(args) -> Path:
    if args.manifest is None:
        raise ManifestError("--manifest is required for this command")
    return args.manifest


def cmd_ingest(args) -> int:
    for corpus in load_corpora(_require_manifest(args), strict=args.strict):
        print(f"{corpus.pair}: train={len(corpus.train)} "
              f"test={len(corpus.test)}")
        for split_name, segments in (("train", corpus.train),
                                     ("test", corpus.test)):
            counts = histogram(segments)
            bins = "  ".join(f"{b.label}:{counts[b]}" for b in SCORE_BINS)
            print(f"  {split_name:5s} {bins}")
        for warning in split_size_warnings(corpus):
            print(f"  warning: {warning}")
    return 0


def cmd_render(args) -> int:
    corpora = load_corpora(_require_manifest(args), pairs=args.pairs)
    template = load_templates(args.template_dir)[TemplateId(args.template)]
    prompts = [p for corpus in corpora
               for p in render_prompts(corpus, template, args.seed or 0)]
    if args.out:
        write_lines(args.out, prompt_lines(prompts))
        print(f"wrote {len(prompts)} prompts to {args.out}")
    else:
        sys.stdout.writelines(prompt_lines(prompts))
    return 0


def cmd_run(args) -> int:
    manifest = RunManifest.from_json(_require_manifest(args))
    updates = {}
    if args.out:
        updates["out_dir"] = str(args.out)
    if args.resume:
        updates["resume"] = True
    if args.mock:
        updates["mock"] = parse_mock_arg(args.mock)
    if args.seed is not None:
        updates["seed"] = args.seed
    manifest = replace(manifest, **updates)

    result = run(manifest)
    print(f"run dir: {result.run_dir}")
    print(f"inference calls: {result.inference_calls}")
    for report in result.reports:
        flag = " (untrustworthy)" if untrustworthy(
            report.n_excluded, report.n_used + report.n_excluded) else ""
        print(f"{report.pair}/{report.template}/{report.model}: "
              f"r={report.pearson_r:.3f} rho={report.spearman_rho:.3f} "
              f"tau={report.kendall_tau:.3f} E={report.n_excluded}{flag} "
              f"[{report.significance.value}]")
    for (pair, template), msg in sorted(result.errors.items()):
        print(f"{pair}/{template}: not evaluated: {msg}")
    return 0


def cmd_extract(args) -> int:
    outputs = list(read_records(args.outputs, ModelOutput.from_dict))
    results, ledger = extract_batch(outputs, model=args.model)

    if args.out:
        with writing(args.out):
            args.out.mkdir(parents=True, exist_ok=True)
        write_lines(args.out / "extractions.jsonl", extraction_lines(results))
        write_json(args.out / "ledger.json", ledger.to_dict())
    print(f"total={ledger.total} excluded={ledger.excluded_count} "
          f"untrustworthy={ledger.flagged_untrustworthy}")
    return 0


def cmd_score(args) -> int:
    (corpus,) = load_corpora(_require_manifest(args), pairs=[args.pair])
    results = list(read_records(args.extractions, ExtractionResult.from_dict))

    gold_by_id = {seg.id: seg.da_mean for seg in corpus.test}
    report = evaluate(gold_by_id, results, pair=args.pair,
                      template=args.template, model=args.model)
    print(f"n={report.n_used} E={report.n_excluded} "
          f"r={report.pearson_r:.3f} rho={report.spearman_rho:.3f} "
          f"tau={report.kendall_tau:.3f} p={report.p_value:.4g} "
          f"[{report.significance.value}]")

    out_dir = args.out or Path(".")
    with writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", report.to_dict())
    if args.dump_worst:
        rows = worst_deviations(corpus, results, args.dump_worst)
        worst_path = out_dir / f"worst_{args.dump_worst}.tsv"
        write_worst_tsv(rows, worst_path)
        print(f"wrote {len(rows)} rows to {worst_path}")
    return 0


def cmd_table(args) -> int:
    reports = read_json(args.run_dir / "summary.json", _summary_reports,
                        ManifestError)
    if not reports:
        raise ManifestError("run produced no reports to tabulate")

    if args.detailed:
        text = render_detailed_table(reports, fmt=args.style)
    else:
        text = render_table(reports, metric=args.metric, fmt=args.style)
    if args.out:
        write_lines(args.out, [text])
        print(f"wrote table to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _summary_reports(summary) -> list[CorrelationReport]:
    return [CorrelationReport.from_dict(d) for d in json_fields(
        summary, {"reports": Field((list,), items=dict)})["reports"]]


_TOKENIZER_ROW = {"name": Field((str,)), "definition": Field((str,))}


def cmd_fertility(args) -> int:
    corpora = load_corpora(_require_manifest(args))
    tokenizers = [
        load_tokenizer(row["name"],
                       (args.tokenizers.parent / row["definition"]).resolve())
        for row in read_records(args.tokenizers,
                                lambda d: json_fields(d, _TOKENIZER_ROW))]

    sampled = [seg for corpus in corpora for seg in sample_sentences(
        corpus, k=args.sample_size, seed=args.seed or 0)]
    records, failures = measure(sampled, tokenizers)

    summaries = summarize(records)
    for s in summaries:
        print(f"{s.pair} {s.tokenizer}: mean_words={s.mean_words:.1f} "
              f"mean_tokens={s.mean_tokens:.1f} "
              f"fertility={s.mean_fertility:.3f} "
              f"(median {s.median_fertility:.3f})")
    for f in failures:
        print(f"tokenizer failure: {f.tokenizer} on segment "
              f"{f.segment_id}: {f.error}")

    if args.out:
        with writing(args.out):
            args.out.mkdir(parents=True, exist_ok=True)
        write_summary_tsv(summaries, args.out / "fertility_summary.tsv")
        write_records_jsonl(records, args.out / "fertility_records.jsonl")
        write_plot_data_tsv(summaries, args.out / "fertility_plot_data.tsv")
        print(f"wrote fertility exports to {args.out}")
    return 0


def cmd_export_sft(args) -> int:
    # an export of one pair reads only that pair's TSVs
    corpora = load_corpora(_require_manifest(args),
                           pairs=[args.pair] if args.pair else None)
    templates = load_templates(args.template_dir)
    config = SftConfig(mode=SftMode(args.mode), shuffle_seed=args.seed or 0)
    out_dir = args.out or Path("sft_export")
    manifest = export(corpora, config, out_dir, templates[TemplateId.AG])
    for pair, count in sorted(manifest["counts"].items()):
        print(f"{pair}: {count} records")
    print(f"total: {manifest['total_records']} records in {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HarnessError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
