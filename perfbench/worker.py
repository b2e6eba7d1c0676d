"""One measured call of one workload, in a process of its own.

    python3 perfbench/worker.py '<spec json>'

The benchmark starts a fresh worker for every measured call, so the peak
RSS it reports belongs to that call alone. The worker times the call into
qeharness's public API, then checks the call's outputs and prints one JSON
object as its last line of output. The spec names the workload, the corpus
manifest, the output directory, the seed and the monotonic time the worker
was launched at; for http_loopback also the endpoint, and for a traced call
the file the spans are written to.

The checks work out the expected prompts and records without qeharness:
ICL exemplars and the SFT shuffle follow the SHA-256 ranking that
qeharness.seeding and qeharness.prompts document, recomputed here with
hashlib, so a change that alters which text is written fails the run.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpora  # noqa: E402  (benchmark module beside this file)
from qeharness import pipeline, sft_export  # noqa: E402
from qeharness.corpus import load_corpora  # noqa: E402
from qeharness.extraction import extract_score  # noqa: E402
from qeharness.gateway import TRANSPORT_OK  # noqa: E402
from qeharness.prompts import TemplateId, load_templates  # noqa: E402

# interpreter start-up and imports end here; the benchmark counts them as set-up
IMPORTED = time.monotonic()

ALL_TEMPLATES = tuple(TemplateId)
# http_loopback: 2,000 prompts over a zero-shot and an ICL combo. et-en
# prompts are mostly ASCII, so the few ICL exemplars picked per seed sway
# the artifact size less than with a pair whose prompts JSON-escape.
HTTP_PAIRS = ("et-en",)
HTTP_TEMPLATES = (TemplateId.GEMBA, TemplateId.AG_ICL3)
HTTP_IN_FLIGHT = 2
HTTP_BACKOFF_BASE_S = 0.005
RUN_DIGEST_PARTS = ("prompts", "outputs", "extractions", "reports",
                    "summary.json")
SFT_TOTAL = sum(train for train, _, _, _ in corpora.PAIRS.values())
# DA score bins, closed at the upper end: (label, upper bound)
SCORE_BINS = (("0-30", 30.0), ("31-50", 50.0), ("51-70", 70.0),
              ("71-90", 90.0), ("91-100", 100.0))
# ICL template -> (bin, rank) of each exemplar: the best-ranked train segment
# of each bin used, and for ICL7 the runner-up of the lowest and highest bin
ICL_PICKS = {
    TemplateId.AG_ICL3.value: ((0, 0), (3, 0), (4, 0)),
    TemplateId.AG_ICL5.value: tuple((b, 0) for b in range(5)),
    TemplateId.AG_ICL7.value: tuple((b, 0) for b in range(5)) + ((0, 1), (4, 1)),
}


def _written_bytes() -> int:
    """Bytes this process has passed to write() so far."""
    for line in Path("/proc/self/io").read_text().splitlines():
        if line.startswith("wchar:"):
            return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def digest(base: Path, parts) -> str:
    """SHA-256 over the relative path and bytes of every file in parts.

    summary.json enters without its inference_calls field, which counts the
    prompts a run dispatched and so differs between a run and its resume;
    the checks compare that count with the expected one separately.
    """
    h = hashlib.sha256()
    for part in parts:
        root = base / part
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for path in files:
            data = path.read_bytes()
            if path.name == "summary.json":
                summary = json.loads(data)
                del summary["inference_calls"]
                data = json.dumps(summary, sort_keys=True).encode()
            h.update(str(path.relative_to(base)).encode() + b"\0")
            h.update(data)
    return h.hexdigest()


def _rank(*parts) -> int:
    """SHA-256 rank of the null-joined parts, as qeharness.seeding keys every
    seeded choice."""
    payload = "\0".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


def _pair_block(src: str, mt: str) -> str:
    return f'Source text: "{src}"\nTranslation: "{mt}"'


def _exemplar_blocks(train, pair: str, seed: int) -> dict[str, str]:
    """ICL template -> the exemplar block its prompts must carry, ordered by
    bin, score and segment id, each exemplar with its gold score."""
    by_bin = [[] for _ in SCORE_BINS]
    for seg_id, (src, mt, score) in enumerate(train, start=1):
        b = next(i for i, (_, upper) in enumerate(SCORE_BINS) if score <= upper)
        by_bin[b].append((b, score, seg_id, src, mt))
    ranked = [sorted(segs, key=lambda s, label=label: _rank(seed, pair, label, s[2]))
              for (label, _), segs in zip(SCORE_BINS, by_bin)]
    if any(len(segs) < 2 for segs in ranked):
        raise ValueError(f"{pair}: a score bin has fewer than two train segments")
    return {template: "\n\n".join(
                _pair_block(src, mt) + f"\nScore: {score:.1f}"
                for _, score, _, src, mt in sorted(ranked[b][r] for b, r in picks))
            for template, picks in ICL_PICKS.items()}


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _run_manifest(spec: dict) -> pipeline.RunManifest:
    if spec["workload"] == "http_loopback":
        return pipeline.RunManifest(
            corpora_manifest=spec["corpora"], templates=HTTP_TEMPLATES,
            out_dir=spec["out_dir"], seed=spec["seed"], pairs=HTTP_PAIRS,
            inference={"endpoint_url": spec["endpoint"],
                       "model_name": "loopback",
                       "max_in_flight": HTTP_IN_FLIGHT,
                       "retry_backoff_base": HTTP_BACKOFF_BASE_S})
    return pipeline.RunManifest(
        corpora_manifest=spec["corpora"], templates=ALL_TEMPLATES,
        out_dir=spec["out_dir"], seed=spec["seed"],
        mock={"policy": "echo-score"},
        resume=spec["workload"] == "mock_resume")


def _check_run(spec: dict, result, out: Path, report: dict) -> list[str]:
    errors = []
    http = spec["workload"] == "http_loopback"
    pairs, templates = ((HTTP_PAIRS, HTTP_TEMPLATES) if http
                        else (tuple(corpora.PAIRS), ALL_TEMPLATES))
    n_prompts = sum(corpora.PAIRS[p][1] for p in pairs) * len(templates)
    corpus_dir = Path(spec["corpora"]).parent
    tests = {pair: corpora.read_tsv(corpus_dir / f"{pair}.test.tsv")
             for pair in pairs}
    blocks = {pair: _exemplar_blocks(
                  corpora.read_tsv(corpus_dir / f"{pair}.train.tsv"), pair,
                  spec["seed"]) for pair in pairs}
    rendered, bad_text = 0, 0
    for path in (out / "prompts").glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            rendered += 1
            rec = json.loads(line)
            src, mt, _ = tests[rec["pair"]][rec["segment_id"] - 1]
            text = rec["text"]
            block = blocks[rec["pair"]].get(rec["template"])
            if block is not None:
                end = text.find(block)
                text = text[end + len(block):] if end >= 0 else ""
            bad_text += not (src in text and mt in text)
    if bad_text:
        errors.append(f"{bad_text} prompts lack their segment's text or the "
                      "expected ICL exemplars")
    ledger_total = sum(ledger.total for ledger in result.ledgers)
    fresh_calls = 0 if spec["workload"] == "mock_resume" else n_prompts
    if result.errors:
        errors.append(f"combos failed: {sorted(result.errors)}")
    if len(result.reports) != len(pairs) * len(templates):
        errors.append(f"{len(result.reports)} reports for "
                      f"{len(pairs) * len(templates)} combos")
    for rep in result.reports:
        if abs(rep.spearman_rho - 1.0) > 1e-12:
            errors.append(f"{rep.pair}/{rep.template}: rho {rep.spearman_rho}")
    if not rendered == ledger_total == n_prompts:
        errors.append(f"prompts rendered {rendered}, ledger total "
                      f"{ledger_total}, expected {n_prompts}")
    if result.inference_calls != fresh_calls:
        errors.append(f"inference_calls {result.inference_calls}, "
                      f"expected {fresh_calls}")

    gold = {(pair, seg_id): score for pair, rows in tests.items()
            for seg_id, (_, _, score) in enumerate(rows, start=1)}
    wrong = 0
    for path in (out / "extractions").glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            ref = rec["prompt_ref"]
            wrong += rec["score"] != gold[(ref["pair"], ref["segment_id"])]
    if wrong:
        errors.append(f"{wrong} extracted scores differ from the gold score")

    latencies, failed = [], 0
    for path in (out / "outputs").glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            latencies.append(rec["latency_ms"])
            failed += rec["status"] != TRANSPORT_OK
    report["items"] = n_prompts
    report["failed"] = failed
    if http:
        report["latency_p50_ms"] = statistics.median(latencies)
        report["latency_p99_ms"] = _percentile(latencies, 0.99)
        # latencies differ between runs, so outputs/ stays out of the digest
        parts = [p for p in RUN_DIGEST_PARTS if p != "outputs"]
    else:
        parts = RUN_DIGEST_PARTS
    report["digest"] = digest(out, parts)
    return errors


def _check_sft(spec: dict, manifest: dict, out: Path, report: dict) -> list[str]:
    rows = {}
    corpus_dir = Path(spec["corpora"]).parent
    for pair in corpora.PAIRS:
        train = corpora.read_tsv(corpus_dir / f"{pair}.train.tsv")
        for seg_id, row in enumerate(train, start=1):
            rows[(pair, seg_id)] = row
    # the pooled shuffle ranks each record by (seed, "sft-shuffle", key)
    expected = sorted(rows, key=lambda key: _rank(spec["seed"], "sft-shuffle", key))
    errors, wrong, misplaced, lines = [], 0, 0, 0
    path = out / manifest["files"]["umt"]
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            key = (rec["meta"]["pair"], rec["meta"]["segment_id"])
            misplaced += lines >= len(expected) or key != expected[lines]
            lines += 1
            src, mt, score = rows.get(key, ("", "", None))
            if (score is None or rec["output"] != f"Score: {score:.1f}"
                    or extract_score(rec["output"]).score != score
                    or _pair_block(src, mt) not in rec["instruction"]):
                wrong += 1
    if not manifest["total_records"] == lines == len(expected) == SFT_TOTAL:
        errors.append(f"manifest {manifest['total_records']} records, file "
                      f"{lines} lines, expected {SFT_TOTAL}")
    if misplaced:
        errors.append(f"{misplaced} records are not in the seeded shuffle order")
    if wrong:
        errors.append(f"{wrong} records do not carry their segment's text "
                      "and gold score")
    report["items"] = SFT_TOTAL
    report["failed"] = wrong
    report["digest"] = digest(out, [manifest["files"]["umt"],
                                    "sft_manifest.json"])
    return errors


def _server(endpoint: str, path: str, post: bool = False) -> dict:
    url = endpoint.rsplit("/v1/", 1)[0] + path
    req = urllib.request.Request(url, data=b"" if post else None)
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def measure(spec: dict) -> dict:
    workload = spec["workload"]
    out = Path(spec["out_dir"])
    tracer = None
    if spec.get("trace_path"):
        import spans  # only traced calls import the tracer
        tracer = spans.Tracer()
        tracer.install()

    def call(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    if workload == "http_loopback":
        _server(spec["endpoint"], "/reset", post=True)

    written = _written_bytes()
    started = time.perf_counter()
    if workload == "sft_umt":
        # what `qeharness export-sft --mode umt` does
        corpus = call("corpus.load", load_corpora, spec["corpora"])
        template = load_templates()[TemplateId.AG]
        config = sft_export.SftConfig(mode=sft_export.SftMode.UMT,
                                      shuffle_seed=spec["seed"])
        result = call("sft_export.export", sft_export.export, corpus, config,
                      out, template)
    else:
        result = call("pipeline.run", pipeline.run, _run_manifest(spec))
    report = {
        "startup_s": IMPORTED - spec["launched"],
        "wall_s": time.perf_counter() - started,
        "written_bytes": _written_bytes() - written,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.uninstall()

    if workload == "sft_umt":
        report["errors"] = _check_sft(spec, result, out, report)
    else:
        report["errors"] = _check_run(spec, result, out, report)
    if tracer:
        if workload == "http_loopback":
            report["server"] = _server(spec["endpoint"], "/stats")
        report["layers"] = spans.layer_times(tracer.spans)
        report["counts"] = dict(tracer.counts)
        tracer.write(Path(spec["trace_path"]))
    return report


def main() -> int:
    report = measure(json.loads(sys.argv[1]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
