from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

import qeharness
from qeharness.cli import main
from qeharness.extraction import ExtractionResult
from qeharness.gateway import ModelOutput, PromptRef, TRANSPORT_OK

from conftest import synthetic_corpus, write_corpus_manifest
from subword import write_english_bpe_definition


@pytest.fixture
def corpora_manifest(tmp_path) -> Path:
    corpora = [synthetic_corpus("en-gu", n_train=60, n_test=30),
               synthetic_corpus("si-en", n_train=40, n_test=20)]
    return write_corpus_manifest(tmp_path / "data", corpora)


def _run_manifest_file(tmp_path, corpora_manifest, **extra) -> Path:
    doc = {
        "corpora_manifest": str(corpora_manifest),
        "templates": ["ag"],
        "out_dir": str(tmp_path / "run"),
        "seed": 3,
        "inference": {"model_name": "mock-model",
                      "retry_backoff_base": 0.0},
    }
    doc.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_ingest_prints_sizes_and_histograms(corpora_manifest, capsys):
    assert main(["ingest", "--manifest", str(corpora_manifest)]) == 0
    out = capsys.readouterr().out
    assert "en-gu: train=60 test=30" in out
    assert "si-en: train=40 test=20" in out
    assert "0-30:" in out and "91-100:" in out


def test_ingest_full_size_marathi_splits(tmp_path, capsys):
    # published split sizes for the largest pair: 26000 train, 699 test
    corpora = [synthetic_corpus("en-mr", n_train=26_000, n_test=699)]
    manifest = write_corpus_manifest(tmp_path / "mr", corpora)
    assert main(["ingest", "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "en-mr: train=26000 test=699" in out
    counts = [int(tok.split(":")[1]) for tok in out.split()
              if ":" in tok and tok.split(":")[0] in
              ("0-30", "31-50", "51-70", "71-90", "91-100")]
    assert sum(counts) == 26_000 + 699
    assert "warning" not in out  # sizes match the published splits


def test_skipped_rows_are_named_by_ingest_and_the_run_log(
        tmp_path, corpora_manifest, capsys):
    test_tsv = corpora_manifest.parent / "en-gu.test.tsv"
    lines = test_tsv.read_text(encoding="utf-8").splitlines()
    lines[3] = "src\tmt\tabc"  # data row 3: a score that is no number
    lines[7] = "\tmt\t50"  # data row 7: an empty source
    test_tsv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    note = ("en-gu test split skipped 2 malformed rows: row 3 BadNumber, "
            "row 7 EmptySource")

    assert main(["ingest", "--manifest", str(corpora_manifest)]) == 0
    out = capsys.readouterr().out
    assert f"warning: {note}" in out and out.count("malformed") == 1

    manifest = _run_manifest_file(tmp_path, corpora_manifest)
    assert main(["run", "--manifest", str(manifest), "--mock",
                 "echo-score"]) == 0
    assert "inference calls: 48" in capsys.readouterr().out
    log = (tmp_path / "run" / "log.txt").read_text(encoding="utf-8")
    assert note in log and log.count("malformed") == 1


def test_unknown_flag_exits_2(corpora_manifest):
    with pytest.raises(SystemExit) as err:
        main(["ingest", "--manifest", str(corpora_manifest), "--bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["ingest", "--manifest", "m.jsonl", "--seed", "9"],
    ["ingest", "--manifest", "m.jsonl", "--out", "x"],
    ["extract", "--outputs", "o.jsonl", "--seed", "1"],
    ["extract", "--outputs", "o.jsonl", "--manifest", "m.jsonl"],
    ["score", "--manifest", "m.jsonl", "--extractions", "e.jsonl", "--pair",
     "en-gu", "--template", "ag", "--seed", "1"],
    ["table", "--run-dir", "run", "--seed", "3"],
    ["table", "--run-dir", "run", "--manifest", "m.jsonl"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flag_a_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fertility", "--tokenizers", "t.jsonl", "-k", "0"],
    ["fertility", "--tokenizers", "t.jsonl", "--sample-size", "-3"],
    ["score", "--extractions", "e.jsonl", "--pair", "en-gu", "--template",
     "ag", "--dump-worst", "0"],
    ["score", "--extractions", "e.jsonl", "--pair", "en-gu", "--template",
     "ag", "--dump-worst", "-2"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}{argv[-1]}")
def test_count_flag_below_one_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"invalid positive_int value: '{argv[-1]}'" in \
        capsys.readouterr().err


def test_score_template_must_be_a_template_id(capsys):
    with pytest.raises(SystemExit) as err:
        main(["score", "--manifest", "m.jsonl", "--extractions", "e.jsonl",
              "--pair", "en-gu", "--template", "nonsense"])
    assert err.value.code == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_manifest_is_typed_error(capsys):
    assert main(["ingest"]) == 1
    assert "error[ManifestError]" in capsys.readouterr().err


def test_render_dumps_prompts(corpora_manifest, tmp_path, capsys):
    out_file = tmp_path / "prompts.jsonl"
    code = main(["render", "--manifest", str(corpora_manifest),
                 "--template", "ag", "--pairs", "en-gu",
                 "--seed", "4", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 30
    record = json.loads(lines[0])
    assert set(record) == {"pair", "segment_id", "template", "seed", "text"}
    assert record["template"] == "ag"
    assert record["seed"] == 4


def test_run_without_endpoint_or_mock_fails_typed(tmp_path, corpora_manifest,
                                                  capsys):
    manifest = _run_manifest_file(tmp_path, corpora_manifest)
    assert main(["run", "--manifest", str(manifest)]) == 1
    assert "error[EndpointMissing]" in capsys.readouterr().err


def test_run_with_mock_then_table(tmp_path, corpora_manifest, capsys):
    manifest = _run_manifest_file(tmp_path, corpora_manifest)
    assert main(["run", "--manifest", str(manifest),
                 "--mock", "echo-score"]) == 0
    out = capsys.readouterr().out
    assert "rho=1.000" in out
    assert "inference calls: 50" in out

    assert main(["table", "--run-dir", str(tmp_path / "run"),
                 "--metric", "rho"]) == 0
    table = capsys.readouterr().out
    assert "en-gu" in table and "si-en" in table and "1.000" in table

    assert main(["table", "--run-dir", str(tmp_path / "run"),
                 "--detailed", "--style", "tsv"]) == 0
    detailed = capsys.readouterr().out
    assert "mock-model:E" in detailed.splitlines()[0]

    table_file = tmp_path / "table.txt"
    assert main(["table", "--run-dir", str(tmp_path / "run"),
                 "--metric", "rho", "--out", str(table_file)]) == 0
    assert table_file.read_text(encoding="utf-8") == table


def test_run_out_and_seed_flags_override_the_manifest(tmp_path,
                                                      corpora_manifest,
                                                      capsys):
    manifest = _run_manifest_file(tmp_path, corpora_manifest)
    out = tmp_path / "elsewhere"
    assert main(["run", "--manifest", str(manifest), "--mock", "echo-score",
                 "--out", str(out), "--seed", "11"]) == 0
    assert f"run dir: {out}" in capsys.readouterr().out
    recorded = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert (recorded["out_dir"], recorded["seed"]) == (str(out), 11)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("extra", [
    {"inference": {"temprature": 0.5}},
    {"inference": {"temperature": -1}},
    {"inference": {"temperature": float("nan")}},
    {"inference": {"endpoint_url": "ftp://example.org/v1"}},
    {"inference": None},
], ids=["unknown-key", "negative-temperature", "nan-temperature",
        "ftp-endpoint", "null-inference"])
def test_run_bad_inference_settings_fail_before_writing(tmp_path,
                                                        corpora_manifest,
                                                        capsys, extra):
    manifest = _run_manifest_file(tmp_path, corpora_manifest, **extra)
    assert main(["run", "--manifest", str(manifest)]) == 1
    assert "error[ManifestError]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_run_manifest_that_is_not_an_object_is_typed_error(tmp_path, capsys):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps(["ag"]), encoding="utf-8")
    assert main(["run", "--manifest", str(manifest)]) == 1
    assert "error[ManifestError]" in capsys.readouterr().err


def test_run_torn_template_manifest_is_typed_error(tmp_path, corpora_manifest,
                                                   capsys):
    template_dir = tmp_path / "templates"
    shutil.copytree(Path(qeharness.__file__).parent / "templates",
                    template_dir)
    torn = (template_dir / "manifest.json").read_text(encoding="utf-8")
    (template_dir / "manifest.json").write_text(torn[:len(torn) // 2],
                                                encoding="utf-8")
    manifest = _run_manifest_file(tmp_path, corpora_manifest,
                                  template_dir=str(template_dir))
    assert main(["run", "--manifest", str(manifest),
                 "--mock", "echo-score"]) == 1
    assert "error[TemplateInvalid]" in capsys.readouterr().err


@pytest.mark.parametrize("summary", [None, '{"reports": [{"pair": "en-gu", "te',
                                     '{"ledgers": []}', '[]',
                                     '{"reports": [{"pair": "en-gu"}]}',
                                     '{"reports": []}'],
                         ids=["missing", "torn", "no-reports", "list",
                              "short-report", "empty-reports"])
def test_table_over_bad_summary_is_typed_error(tmp_path, capsys, summary):
    if summary is not None:
        (tmp_path / "summary.json").write_text(summary, encoding="utf-8")
    assert main(["table", "--run-dir", str(tmp_path)]) == 1
    assert "error[ManifestError]" in capsys.readouterr().err


def test_run_resume_flag(tmp_path, corpora_manifest, capsys):
    manifest = _run_manifest_file(tmp_path, corpora_manifest)
    main(["run", "--manifest", str(manifest), "--mock", "echo-score"])
    capsys.readouterr()
    main(["run", "--manifest", str(manifest), "--mock", "echo-score",
          "--resume"])
    assert "inference calls: 0" in capsys.readouterr().out


def test_extract_subcommand(tmp_path, capsys):
    outputs_path = tmp_path / "outputs.jsonl"
    rows = []
    for i in range(1, 21):
        ref = PromptRef("en-gu", i, "ag", 0)
        text = "Score: 66.5" if i % 4 else "no score here"
        rows.append(ModelOutput(ref, text, 0.0, 1, TRANSPORT_OK).to_dict())
    outputs_path.write_text("\n".join(json.dumps(r) for r in rows))

    out_dir = tmp_path / "ex"
    code = main(["extract", "--outputs", str(outputs_path),
                 "--model", "m", "--out", str(out_dir)])
    assert code == 0
    assert "total=20 excluded=5" in capsys.readouterr().out
    assert (out_dir / "extractions.jsonl").is_file()
    ledger = json.loads((out_dir / "ledger.json").read_text())
    assert ledger["excluded_count"] == 5
    assert ledger["flagged_untrustworthy"] is True


def test_extract_reproduces_a_runs_extractions(tmp_path, corpora_manifest,
                                               capsys):
    manifest = _run_manifest_file(tmp_path, corpora_manifest,
                                  templates=["ag", "ag_icl3"])
    assert main(["run", "--manifest", str(manifest), "--mock",
                 "garbage:0.3"]) == 0
    run_dir = tmp_path / "run"
    outputs = sorted((run_dir / "outputs").iterdir())
    assert len(outputs) == 4
    for path in outputs:
        out_dir = tmp_path / "ex" / path.stem
        assert main(["extract", "--outputs", str(path), "--out",
                     str(out_dir)]) == 0
        assert ((out_dir / "extractions.jsonl").read_bytes()
                == (run_dir / "extractions" / path.name).read_bytes())
    assert "excluded=0 " not in capsys.readouterr().out


def test_extract_torn_line_is_typed_error(tmp_path, capsys):
    ref = PromptRef("en-gu", 1, "ag", 0)
    row = json.dumps(ModelOutput(ref, "Score: 5", 0.0, 1, TRANSPORT_OK).to_dict())
    outputs_path = tmp_path / "outputs.jsonl"
    outputs_path.write_text(row + "\n" + row[:20] + "\n", encoding="utf-8")
    assert main(["extract", "--outputs", str(outputs_path)]) == 1
    assert "error[RowParseError]: row 2:" in capsys.readouterr().err


def test_extract_missing_outputs_is_typed_error(tmp_path, capsys):
    assert main(["extract", "--outputs", str(tmp_path / "absent.jsonl")]) == 1
    assert "error[FileUnreadable]" in capsys.readouterr().err


def test_mock_flag_and_manifest_garbage_agree(tmp_path, corpora_manifest,
                                              capsys):
    # `--mock garbage` and a manifest mock of {"policy": "garbage"} share
    # one default drop rate, so both runs persist the same summary
    summaries = []
    for name, extra, flags in (("flag", {}, ["--mock", "garbage"]),
                               ("manifest", {"mock": {"policy": "garbage"}},
                                [])):
        manifest = _run_manifest_file(tmp_path, corpora_manifest,
                                      out_dir=str(tmp_path / name), **extra)
        assert main(["run", "--manifest", str(manifest)] + flags) == 0
        summaries.append((tmp_path / name / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    assert json.loads(summaries[0])["ledgers"][0]["excluded_count"] > 0


def test_score_subcommand_with_dump_worst(tmp_path, corpora_manifest, capsys):
    manifest = _run_manifest_file(tmp_path, corpora_manifest)
    main(["run", "--manifest", str(manifest), "--mock", "echo-score:5"])
    capsys.readouterr()

    extractions = next((tmp_path / "run" / "extractions").glob(
        "en-gu__ag__*.jsonl"))
    out_dir = tmp_path / "scored"
    code = main(["score", "--manifest", str(corpora_manifest),
                 "--extractions", str(extractions), "--pair", "en-gu",
                 "--template", "ag", "--model", "mock-model",
                 "--dump-worst", "5", "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "rho=1.000" in printed
    report = json.loads((out_dir / "report.json").read_text())
    assert report["pair"] == "en-gu"
    worst = (out_dir / "worst_5.tsv").read_text().splitlines()
    assert len(worst) == 2 + 5  # taxonomy comment + header + rows
    assert "error_label" in worst[1]


def test_dump_worst_keeps_texts_with_tabs_and_newlines(tmp_path, capsys):
    # quoted TSV fields: a tab, a newline, a CR and a quote inside a text
    texts = [("a\tb", "x\ny"), ('say "hi"', "cr\rhere"), ("one", "two"),
             ("three", "four")]
    data = tmp_path / "data"
    data.mkdir()
    lines = ["original\ttranslation\tmean"] + [
        "\t".join('"' + t.replace('"', '""') + '"' for t in pair) + f"\t{i}0"
        for i, pair in enumerate(texts, start=1)]
    for split in ("train", "test"):
        (data / f"en-gu.{split}.tsv").write_text("\n".join(lines) + "\n",
                                                encoding="utf-8", newline="")
    corpora = data / "corpora.jsonl"
    corpora.write_text(json.dumps({"pair": "en-gu", "train": "en-gu.train.tsv",
                                   "test": "en-gu.test.tsv"}) + "\n")
    extractions = tmp_path / "extractions.jsonl"
    extractions.write_text("".join(json.dumps(ExtractionResult(
        PromptRef("en-gu", i, "ag", 0), 100.0 - i).to_dict()) + "\n"
        for i in range(1, len(texts) + 1)))

    out_dir = tmp_path / "scored"
    assert main(["score", "--manifest", str(corpora), "--extractions",
                 str(extractions), "--pair", "en-gu", "--template", "ag",
                 "--dump-worst", "4", "--out", str(out_dir)]) == 0
    with (out_dir / "worst_4.tsv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, dialect="excel-tab"))[2:]
    assert [len(row) for row in rows] == [8] * len(texts)
    assert sorted((row[2], row[3]) for row in rows) == sorted(texts)


def test_fertility_subcommand(tmp_path, corpora_manifest, capsys):
    definitions = tmp_path / "defs"
    definitions.mkdir()
    write_english_bpe_definition(definitions / "eng.json", num_merges=80)
    (definitions / "wl.json").write_text(json.dumps({"kind": "word_level"}))
    tok_manifest = tmp_path / "tokenizers.jsonl"
    tok_manifest.write_text(
        json.dumps({"name": "words", "definition": "defs/wl.json"}) + "\n" +
        json.dumps({"name": "eng-bpe", "definition": "defs/eng.json"}) + "\n")

    out_dir = tmp_path / "fert"
    code = main(["fertility", "--manifest", str(corpora_manifest),
                 "--tokenizers", str(tok_manifest), "-k", "10",
                 "--seed", "2", "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "en-gu words:" in printed
    assert (out_dir / "fertility_summary.tsv").is_file()
    assert (out_dir / "fertility_records.jsonl").is_file()
    assert (out_dir / "fertility_plot_data.tsv").is_file()


def test_export_sft_subcommand(tmp_path, corpora_manifest, capsys):
    out_dir = tmp_path / "sft"
    code = main(["export-sft", "--manifest", str(corpora_manifest),
                 "--mode", "umt", "--seed", "1", "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "en-gu: 60 records" in printed
    assert "total: 100 records" in printed
    assert (out_dir / "sft_umt.jsonl").is_file()


def test_export_sft_ilt_reads_only_its_pair(tmp_path, corpora_manifest,
                                            capsys):
    (corpora_manifest.parent / "en-gu.train.tsv").unlink()
    out_dir = tmp_path / "sft"
    code = main(["export-sft", "--manifest", str(corpora_manifest),
                 "--mode", "ilt", "--pair", "si-en", "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "si-en: 40 records" in printed
    assert "en-gu" not in printed
    assert (out_dir / "sft_ilt_si-en.jsonl").is_file()


def test_export_sft_umt_pair_pools_only_that_pair(tmp_path, corpora_manifest,
                                                  capsys):
    out_dir = tmp_path / "sft"
    assert main(["export-sft", "--manifest", str(corpora_manifest), "--mode",
                 "umt", "--pair", "en-gu", "--out", str(out_dir)]) == 0
    assert "total: 60 records" in capsys.readouterr().out
    records = [json.loads(line) for line in
               (out_dir / "sft_umt.jsonl").read_text().splitlines()]
    assert len(records) == 60
    assert {r["meta"]["pair"] for r in records} == {"en-gu"}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
