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

import _thread
import hashlib
import json
import logging
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing, contextmanager, nullcontext, suppress
from dataclasses import asdict, dataclass, field, replace
from functools import cache, partial
from logging.handlers import QueueHandler
from pathlib import Path
from queue import SimpleQueue
from typing import NamedTuple

from .corpus import (Corpus, CorpusEntry, Field, corpus_digest, json_fields,
                     load_corpora, load_corpus_manifest, read_json,
                     read_records, split_size_warnings, write_json,
                     write_lines, writing)
from .errors import (ChildFailed, EndpointMissing, FileUnreadable,
                     ManifestError, HarnessError)
from .extraction import (ExclusionLedger, ExtractionResult, extract_batch,
                         extraction_lines, untrustworthy)
from .gateway import (EchoScore, Fail, Fixed, Garbage, HttpBackend,
                      InferenceConfig, ModelOutput, MockBackend, complete_batch,
                      gold_map, output_lines)
from .metrics import CorrelationReport, Significance, evaluate
from .prompts import (ICL_TEMPLATES, IclConfig, TemplateId, ZERO_SHOT_TEMPLATES,
                      load_templates, prompt_lines, render_icl,
                      render_zero_shot, select_icl_exemplars)

log = logging.getLogger(__name__)
_RUN_LOG_LOCK = threading.Lock()  # overlapping runs take turns on the logger

__all__ = [
    "ERROR_TAXONOMY", "RunManifest", "RunResult", "run", "build_mock_policy",
    "parse_mock_arg", "render_prompts",
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

    JSON_FIELDS = {
        "corpora_manifest": Field((str,)), "out_dir": Field((str,)),
        "templates": Field((list,), items=str),
        "seed": Field((int,), optional=True),
        "icl_seed": Field((int, None), optional=True),
        "pairs": Field((list, None), items=str, optional=True),
        "inference": Field((dict,), optional=True),
        "mock": Field((dict, None), optional=True),
        "template_dir": Field((str, None), optional=True),
        "resume": Field((bool,), optional=True)}

    def to_dict(self) -> dict:
        return {**asdict(self), "templates": [t.value for t in self.templates],
                "pairs": list(self.pairs) if self.pairs else None}

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        """The manifest a JSON object encodes; a key that names no field, or
        a missing or mistyped field, raises ManifestError."""
        try:
            given = json_fields(d, cls.JSON_FIELDS)
            if len(given) < len(d):
                raise ValueError(f"unknown keys {sorted(d.keys() - given)}")
            templates = tuple(TemplateId(t) for t in given["templates"])
        except ValueError as exc:
            raise ManifestError(f"bad run manifest: {exc}") from exc
        return cls(**{**given, "templates": templates,
                      "pairs": tuple(given["pairs"]) if given.get("pairs")
                      else None})

    @classmethod
    def from_json(cls, path: str | Path) -> "RunManifest":
        return read_json(path, cls.from_dict, ManifestError)


# policy -> (the one field its manifest encoding may hold, that field's
# declaration, its default, how --mock parses it, the policy built from it)
_MOCK_POLICIES = {
    "echo-score": ("offset", Field((int, float, None), optional=True), None,
                   float, EchoScore),
    "fixed": ("text", Field((str,), optional=True), "", str, Fixed),
    "garbage": ("p", Field((int, float), 0, 1, optional=True), 0.1, float,
                Garbage),
    "fail": ("segment_ids", Field((list,), items=int, optional=True), [],
             lambda v: [int(i) for i in v.split(",") if i],
             lambda ids: Fail(segment_ids=frozenset(ids))),
}


def build_mock_policy(spec: dict):
    """Construct a mock policy from its manifest encoding, with defaults.
    An unknown policy, a key its policy does not declare, or a field value
    its declaration does not admit raises ManifestError."""
    kind = spec.get("policy")
    if type(kind) is not str or kind not in _MOCK_POLICIES:
        raise ManifestError(f"unknown mock policy {kind!r}")
    name, declared, default, _, build = _MOCK_POLICIES[kind]
    try:
        given = json_fields(spec, {"policy": Field((str,)), name: declared})
        if len(given) < len(spec):
            raise ValueError(f"unknown keys {sorted(spec.keys() - given)}")
        return build(given.get(name, default))
    except ValueError as exc:
        raise ManifestError(f"bad {kind} mock policy {spec!r}: {exc}") from exc


def parse_mock_arg(text: str) -> dict:
    """The manifest encoding of a --mock value such as echo-score:5,
    fixed:TEXT, garbage:0.1 or fail:3,5. A bare KIND leaves its value out,
    so build_mock_policy's default applies."""
    kind, _, rest = text.partition(":")
    if kind not in _MOCK_POLICIES:
        raise ManifestError(f"unknown mock policy {text!r}")
    name, _, _, parse, _ = _MOCK_POLICIES[kind]
    try:
        return {"policy": kind, name: parse(rest)} if rest else {"policy": kind}
    except ValueError as exc:
        raise ManifestError(f"bad --mock value {text!r}: {exc}") from exc


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
    written: no templates, a bad corpus-manifest record or a listed pair it
    lacks (load_corpus_manifest), or unusable inference settings, mock spec
    or endpoint URL raise ManifestError; a corpus manifest or listed TSV
    that cannot be read, or whose first text chunk (8 KiB, more for a
    longer header row) is not UTF-8, raises FileUnreadable; a TSV header
    that lacks a mapped column raises MissingColumn. These checks hash each
    TSV in slices and decode only that chunk. A pair's rows are parsed, and
    its TSVs decoded whole, just before its first combo that is not
    skipped, so what only parsing finds (see _load_pair), non-UTF-8 bytes
    past the first chunk too, raises there, naming the file; the combos
    that finished before it keep their markers and stay resumable. A pair
    that markers vouch for needs no check: a marker is written only after
    _load_pair has parsed, so decoded, bytes with its digest. Malformed
    rows are skipped and named in log.txt. Per-item inference failures are
    recorded in the outputs and ledger without aborting. A file or run
    subdirectory, or log.txt, that cannot be written raises FileUnwritable
    naming it.

    Each finished combo leaves a marker, fingerprints/<stem>.json, holding
    its fingerprint (_combo_fingerprint) and the SHA-256 of its four
    artifacts. With resume on, a file is kept only when it hashes to the
    digest its marker recorded under the combo's fingerprint. A combo whose
    four artifacts are kept is skipped: its report and ledger are read back
    and nothing is rendered, dispatched or written. Otherwise the combo runs
    again, reading back its outputs whole when they are kept, else
    dispatching every prompt; a missing marker, or one naming another
    fingerprint, keeps nothing. Each pair is
    planned as soon as its TSVs are hashed (_plan_pair): only the combos
    whose marker names their fingerprint have their artifacts hashed, on a
    pool of one thread per CPU, while the next pair's TSVs are hashed. The
    pool's threads end before run returns or raises.

    Each pair is a job of one executor (_pairs) whose workers are this
    process's main thread and, when run builds its backend per pair (a mock
    policy, no backend passed in), the process may use at least two CPUs
    (its affinity mask), and at least two pairs, holding more than
    _CHILD_BREAK_EVEN (6 MB) of TSV between them, have a combo whose marker
    does not name its fingerprint, min(CPUs, such pairs) - 1 children, so
    two CPUs pay for one child start (the 6 MB, timed for two, is thus a
    conservative threshold): fresh interpreters started from sys.executable
    with this package first on their path, which never import the caller's
    __main__. With children the pairs are handed out largest first, else,
    as for an HTTP run or a run given a backend (one in-flight budget), in
    manifest order. A worker
    runs a pair's combos from parse to marker (_outcome); here the plan, the
    skip checks, log.txt and summary.json are made, and each pair's results
    and log records are taken in manifest order, so the files and the
    RunResult are the ones one process makes. Once a pair fails, no pair
    starts, and the first failed pair in manifest order raises its error; a
    child that exits without an outcome raises ChildFailed naming the pair
    and its exit status. An interrupt, or any error, undoes this process's
    staged writes and stops the children with SIGTERM, which undoes theirs.
    No child outlives run, nor does a temp file a killed child left.
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
    entries = load_corpus_manifest(manifest.corpora_manifest, manifest.pairs)
    out = Path(manifest.out_dir)
    with owned, _thread_pool() as pool:
        plans = [(entry, *_plan_pair(manifest, entry, templates, base_cfg,
                                     pool)) for entry in entries]
        policy = None
        if backend is None:
            if manifest.mock is None:
                raise EndpointMissing(
                    "manifest has neither an endpoint_url nor a mock policy")
            policy = build_mock_policy(manifest.mock)

        for sub in ("prompts", "outputs", "extractions", "reports",
                    "fingerprints"):
            with writing(out / sub):
                (out / sub).mkdir(parents=True, exist_ok=True)
        write_json(out / "manifest.json", manifest.to_dict())

        reports: list[CorrelationReport] = []
        ledgers: list[ExclusionLedger] = []
        errors: dict = {}
        dispatched_total = 0

        order, children = _hand_out(plans, backend)
        jobs = {index: (manifest, *plans[index], backend, policy)
                for index in order}
        with _run_log(out / "log.txt"), _pairs(jobs, children, out) as outcome:
            log.info("run start: %d pairs, %d templates", len(plans),
                     len(manifest.templates))
            for index, (entry, _, pair_combos) in enumerate(plans):
                results, records = outcome(index)
                _replay(records)
                if isinstance(results, HarnessError):
                    raise results
                for combo, (dispatched, report, ledger, error) in zip(
                        pair_combos, results):
                    dispatched_total += dispatched
                    ledgers.append(ledger)
                    if report is not None:
                        reports.append(report)
                    if error is not None:
                        errors[(str(entry.pair), combo.tid.value)] = error
            log.info("run end: %d prompts dispatched", dispatched_total)

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


def _run_pair(manifest: RunManifest, entry: CorpusEntry, digest: str,
              combos: list[_Combo], backend, policy) -> list[tuple]:
    """Skip or run each of a pair's combos in order (_run_combo); the pair
    is parsed, and its mock built, for the first combo not skipped, and
    freed with the last. The one per-pair step, wherever it runs."""
    load = cache(partial(_load_pair, manifest, entry, digest, backend, policy))
    return [_run_combo(manifest, str(entry.pair), load, combo)
            for combo in combos]


def _resolved(job: tuple) -> tuple:
    """A job, _run_pair's arguments, as _run_pair takes it: each combo's
    prehash future replaced by the digests it gives."""
    *head, combos, backend, policy = job
    return (*head, [c._replace(prehash=c.prehash and c.prehash.result())
                    for c in combos], backend, policy)


def _load_pair(manifest: RunManifest, entry: CorpusEntry, digest: str,
               backend, policy) -> tuple[Corpus, object]:
    """entry's corpus, parsed, and the backend its combos dispatch to: the
    run's own, or a mock over this pair's gold scores. Logs the corpus's
    split-size and skipped-row notes. A TSV that is not UTF-8 or holds a
    field longer than csv.field_size_limit(), or a corpus whose digest is
    no longer the one the run fingerprinted, raises FileUnreadable; a pair
    the corpus manifest no longer lists raises load_corpora's
    ManifestError."""
    (corpus,) = load_corpora(manifest.corpora_manifest,
                             pairs=[str(entry.pair)])
    if corpus.digest != digest:
        raise FileUnreadable(f"the {entry.pair} corpus changed since the run "
                             f"started ({entry.train_path}, {entry.test_path})")
    for warning in split_size_warnings(corpus):
        log.info("%s", warning)
    if backend is None:
        backend = MockBackend(policy, gold=gold_map(corpus.test),
                              seed=manifest.seed)
    return corpus, backend


@contextmanager
def _run_log(path: Path):
    """While the block runs, append the qeharness logger's INFO and higher
    records to path, and print on stderr the warnings logging.lastResort
    printed before; then remove these handlers and restore the level."""
    logger = logging.getLogger("qeharness")
    with _RUN_LOG_LOCK:
        level = logger.level
        stderr = [] if logger.hasHandlers() else [logging.lastResort]
        with writing(path):
            run_log = logging.FileHandler(path, encoding="utf-8")
        run_log.setFormatter(logging.Formatter("%(asctime)s %(message)s",
                                               "%Y-%m-%dT%H:%M:%S"))
        added = [run_log, *filter(None, stderr)]
        logger.handlers = [*logger.handlers, *added]
        logger.setLevel(logging.INFO)
        try:
            yield
        finally:
            logger.handlers = [h for h in logger.handlers if h not in added]
            logger.setLevel(level)
            run_log.close()


@contextmanager
def _thread_pool():
    """A pool of one thread per CPU (_cpus). Leaving the block, by any path,
    cancels the work not yet started and joins the threads."""
    pool = ThreadPoolExecutor(_cpus())
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, which a cpuset
    or taskset narrows, where the platform has one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The TSV bytes of the pairs with combos to run above which children run
# pairs beside this process (run). Two children must pay for their starts:
# a child starts in about 0.17 s, a 6-template mock run gets through about
# 18 MB of TSV per second, and two workers at best halve the work, so it
# must outlast 0.34 s: 0.34 s x 18 MB/s is about 6 MB. Timed on a 2-vCPU Xeon
# VM (Python 3.11) over two pairs cut to size, two children lost at 4 MB
# (0.51 s in one process against 0.58 s) and won 7 of 8 runs at 6 MB (0.73 s
# against 0.69 s). As this process is itself a worker, two CPUs pay for one
# start, not two, so 6 MB is a conservative threshold.
_CHILD_BREAK_EVEN = 6_000_000


def _hand_out(plans: list[tuple], backend) -> tuple:
    """The order in which run hands out the indices of plans, and the
    number of child processes that run them beside this process. When run
    builds a mock backend per pair (backend is None), the process may use
    two CPUs or more, and two pairs or more, with more than
    _CHILD_BREAK_EVEN TSV bytes between them, have combos to run: those
    pairs largest first by TSV bytes, then the others, to min(CPUs, pairs
    with combos to run) - 1 children. Else manifest order and no child. A
    pair has a combo to run when some combo's marker does not name its
    fingerprint; a combo whose marker names it is expected to skip."""
    if backend is not None or _cpus() < 2:
        return range(len(plans)), 0
    sizes = {}
    for index, (entry, _, combos) in enumerate(plans):
        hashed = {c.marker for c in combos if c.prehash is not None}
        if any(c.marker not in hashed for c in combos):
            sizes[index] = sum(_size(p) for p in (entry.train_path,
                                                  entry.test_path))
    if len(sizes) < 2 or sum(sizes.values()) <= _CHILD_BREAK_EVEN:
        return range(len(plans)), 0
    return (sorted(range(len(plans)), key=lambda i: sizes.get(i, -1),
                   reverse=True), min(_cpus(), len(sizes)) - 1)


def _size(path: Path) -> int:
    """The size of the file at path; 0 when it is gone, which _load_pair
    reports when the run reaches its pair."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


# What a child runs: the parent's copy of the package first on its path, the
# working directory off it, then _serve. The caller's __main__ is never
# imported.
_CHILD_CODE = ("import sys; "
               "sys.path = [sys.argv[1], *filter(None, sys.path)]; "
               "from qeharness.pipeline import _serve; _serve()")
_PACKAGE_ROOT = str(Path(__file__).absolute().parent.parent)
_CHILD_GRACE_S = 10  # how long an interrupted child may take to clean up


@contextmanager
def _pairs(jobs: dict, children: int, out: Path):
    """Run each job, a key's _run_pair arguments (_resolved when handed
    out), on this thread or in one of children fresh interpreters (_serve),
    in the order of jobs; yields outcome(key), the _outcome of key's job,
    which runs waiting jobs on this thread until that job is done. Jobs and
    outcomes cross the children's pipes pickled; a child that exits without
    an outcome fails its job with ChildFailed naming the pair and the exit
    status. Once a job has failed, each waiting job gets the outcome ([],
    []). Leaving the block by an exception stops the children with SIGTERM,
    which they take as Ctrl-C. By any path every child is reaped and, when
    one ended abnormally, the run's *.tmp files are removed."""
    outcomes = {key: Future() for key in jobs}
    waiting = deque(jobs.items())
    lock = threading.Lock()
    procs: list[subprocess.Popen] = []
    drivers: list[threading.Thread] = []

    def stop() -> None:
        with lock:
            while waiting:
                outcomes[waiting.popleft()[0]].set_result(([], []))

    def take() -> tuple | None:  # the next waiting (key, job) resolved
        with lock:
            if not waiting:
                return None
            key, job = waiting.popleft()
        return key, _resolved(job)

    def settle(key, outcome: tuple) -> None:
        if isinstance(outcome[0], HarnessError):
            stop()
        outcomes[key].set_result(outcome)

    def drive(proc: subprocess.Popen) -> None:
        while (taken := take()) is not None:
            key, job = taken
            try:
                pickle.dump(job, proc.stdin)
                proc.stdin.flush()
                outcome = pickle.load(proc.stdout)
            except Exception:  # the child died, or sent what cannot be read
                try:
                    status = proc.wait(_CHILD_GRACE_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    status = proc.wait()
                cause = f" ({signal.strsignal(-status)})" if status < 0 else ""
                outcome = (ChildFailed(
                    f"the child process running pair {job[1].pair} exited "
                    f"with status {status}{cause}"), [])
            settle(key, outcome)
        with suppress(OSError):  # a child that died leaves a broken pipe
            proc.stdin.close()

    def outcome(key) -> tuple:
        while not outcomes[key].done() and (taken := take()) is not None:
            settle(taken[0], _outcome(taken[1]))
        return outcomes[key].result()

    try:
        for _ in range(children):
            procs.append(subprocess.Popen(
                [sys.executable, *subprocess._args_from_interpreter_flags(),
                 "-c", _CHILD_CODE, _PACKAGE_ROOT],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE))
            drivers.append(threading.Thread(target=drive, args=(procs[-1],)))
            drivers[-1].start()
        yield outcome
    except BaseException:
        stop()
        for proc in procs:
            proc.terminate()
        raise
    finally:
        stop()
        for proc in procs:
            try:
                proc.wait(_CHILD_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for driver in drivers:
            driver.join()
        for proc in procs:
            proc.stdout.close()
        if any(proc.returncode for proc in procs):
            for tmp in out.glob("*/*.tmp"):
                tmp.unlink(missing_ok=True)


def _outcome(job: tuple) -> tuple:
    """(_run_pair(*job)'s results, or the HarnessError it raised, the log
    records it made), in this process or a child. While it runs, the
    qeharness logger's handlers are swapped for a QueueHandler, with
    propagation off; any other exception propagates once the records held
    are handed to the handlers put back."""
    logger = logging.getLogger("qeharness")
    held, kept = SimpleQueue(), (logger.handlers, logger.propagate)
    logger.handlers, logger.propagate = [QueueHandler(held)], False

    def restored() -> list:
        logger.handlers, logger.propagate = kept
        return [held.get() for _ in range(held.qsize())]

    try:
        results = _run_pair(*job)
    except HarnessError as exc:
        results = exc
    except BaseException:
        _replay(restored())
        raise
    return results, restored()


def _replay(records: list) -> None:
    """Hand records to the handlers of the loggers that made them."""
    for record in records:
        logging.getLogger(record.name).handle(record)


def _serve() -> None:
    """A child's loop: read pickled _run_pair arguments from stdin, run
    them, and write the pickled _outcome to stdout, until stdin ends. SIGINT
    is left to the parent; SIGTERM interrupts as Ctrl-C would, so a staged
    write is undone, and so does the parent's end while a job runs
    (_interrupt_if_orphaned). A child whose outcome cannot be sent, its
    parent gone, exits with status 1. What the child prints goes to stderr,
    keeping stdout for outcomes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    logging.getLogger("qeharness").setLevel(logging.INFO)
    with os.fdopen(os.dup(1), "wb") as outcomes:
        os.dup2(2, 1)
        try:
            while True:
                try:
                    job = pickle.load(sys.stdin.buffer)
                except EOFError:
                    return
                done = threading.Event()
                threading.Thread(target=_interrupt_if_orphaned, args=(done,),
                                 daemon=True).start()
                outcome = _outcome(job)
                done.set()
                pickle.dump(outcome, outcomes)
                outcomes.flush()
        except KeyboardInterrupt:
            sys.exit(130)
        except BrokenPipeError:  # closing outcomes would raise it again
            os._exit(1)


def _interrupt_if_orphaned(done: threading.Event) -> None:
    """Wait until stdin is readable, then interrupt the main thread as
    SIGTERM does, unless done is set by then. The parent sends nothing while
    a job runs, so stdin readable before the job is done is its end: the
    parent is gone."""
    select.select([sys.stdin], [], [])
    if not done.is_set():
        _thread.interrupt_main(signal.SIGTERM)


class _Combo(NamedTuple):
    """A (pair, template) combo as _plan_pair plans it: its template, its
    inference settings, its fingerprint (_combo_fingerprint), its four
    artifact paths by kind, its marker's path, and the future of its
    artifacts' _digests when they were submitted for hashing, else None
    (_resolved puts the digests in the future's place)."""

    tid: TemplateId
    template: object
    cfg: InferenceConfig
    fingerprint: str
    artifacts: dict[str, Path]
    marker: Path
    prehash: object


def _plan_pair(manifest: RunManifest, entry: CorpusEntry, templates: dict,
               base_cfg: InferenceConfig, pool) -> tuple[str, list[_Combo]]:
    """entry's corpus_digest and its combos in run order. With resume on,
    the artifacts of each combo whose marker names its fingerprint are
    submitted to pool for hashing, while the next pair's TSVs are hashed.
    A template listed twice shares one marker: only its first combo's
    artifacts are submitted, and the second hashes what the first left."""
    out = Path(manifest.out_dir)
    pair = str(entry.pair)
    paths = [_combo_paths(out, pair, templates[tid], base_cfg.model_name,
                          manifest.seed) for tid in manifest.templates]
    recorded = [_read_marker(marker).get("fingerprint") if manifest.resume
                else None for _, marker in paths]
    digest = corpus_digest(entry)
    combos = []
    for tid, (artifacts, marker), fingerprint in zip(manifest.templates,
                                                     paths, recorded):
        cfg = base_cfg
        if "max_context_tokens" not in manifest.inference:
            cfg = replace(cfg, max_context_tokens=_context_default(tid))
        ours = _combo_fingerprint(manifest, digest, templates[tid], cfg)
        prehash = (pool.submit(_digests, artifacts) if fingerprint == ours
                   and all(c.marker != marker for c in combos) else None)
        combos.append(_Combo(tid, templates[tid], cfg, ours, artifacts,
                             marker, prehash))
    return digest, combos


def _combo_paths(out: Path, pair: str, template, model_name: str, seed: int
                 ) -> tuple[dict[str, Path], Path]:
    """A combo's four artifact paths by kind, and its marker's path."""
    tid = template.id.value
    stem = f"{pair}__{tid}__{_safe(model_name)}__seed{seed}"
    artifacts = {
        "prompts": out / "prompts" / f"{pair}__{tid}__v{template.version}__seed{seed}.jsonl",
        "outputs": out / "outputs" / f"{stem}.jsonl",
        "extractions": out / "extractions" / f"{stem}.jsonl",
        "report": out / "reports" / f"{stem}.json",
    }
    return artifacts, out / "fingerprints" / f"{stem}.json"


def _run_combo(manifest: RunManifest, pair: str, load, combo: _Combo):
    """Skip or run one combo, its prehash resolved (_resolved); load() gives
    the pair's (corpus, backend), which a skipped combo never asks for.
    Returns (dispatched, report, ledger, error). An artifact is kept only
    when its file hashes to the digest the marker recorded under this
    combo's fingerprint: all four kept, the combo is skipped; the
    outputs kept, they are read back whole and nothing is dispatched; else
    every prompt is dispatched. The marker is read here again, so a
    template listed twice sees the marker its twin wrote in this run."""
    seed = manifest.seed
    tid, template, cfg, fingerprint, artifacts, marker_path, prehash = combo
    marker = _read_marker(marker_path) if manifest.resume else {}
    found = {}  # each artifact's digest now, when the marker may vouch
    if marker.get("fingerprint") == fingerprint:
        found = _digests(artifacts) if prehash is None else prehash
    # a file that cannot be read is never kept, not even for a recorded null
    kept = {kind for kind, digest in found.items()
            if digest is not None and marker["artifacts"].get(kind) == digest}
    if kept == artifacts.keys():
        report, ledger, error = read_json(artifacts["report"], _report_file,
                                          ManifestError)
        log.info("%s/%s: skipped, finished under the same fingerprint", pair,
                 tid.value)
        return 0, report, ledger, error

    corpus, backend = load()
    prompts = render_prompts(corpus, template, seed, manifest.icl_seed)
    digests = {"prompts": write_lines(artifacts["prompts"],
                                      prompt_lines(prompts))}
    if "outputs" in kept:
        outputs = list(read_records(artifacts["outputs"],
                                   ModelOutput.from_dict))
        dispatched, resumed = 0, len(outputs)
    else:
        if found.get("outputs") is not None:
            log.info("%s/%s: %s is not the outputs file its marker recorded; "
                     "every prompt is dispatched again", pair, tid.value,
                     artifacts["outputs"])
        outputs = complete_batch(cfg, prompts, backend)
        # a prompt refused before sending (context overflow) made no attempt
        dispatched, resumed = sum(o.attempt_count > 0 for o in outputs), 0
    digests["outputs"] = write_lines(artifacts["outputs"],
                                     output_lines(outputs))
    # the outputs are vouched for from here on, so a kill before the last
    # marker resumes without dispatching
    write_json(marker_path, {"fingerprint": fingerprint,
                             "artifacts": {"outputs": digests["outputs"]}})
    log.info("%s/%s: %d dispatched, %d resumed", pair, tid.value, dispatched,
             resumed)

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
        log.info("%s/%s: evaluation failed: %s", pair, tid.value, error)
    digests["report"] = write_json(artifacts["report"], doc)
    write_json(marker_path, {"fingerprint": fingerprint, "artifacts": digests})
    return dispatched, report, ledger, error


_REPORT_FILE_FIELDS = {"report": Field((dict, None)), "ledger": Field((dict,)),
                       "error": Field((str, None), optional=True)}


def _report_file(doc) -> tuple:
    """(report, ledger, error) of a combo's report file."""
    f = json_fields(doc, _REPORT_FILE_FIELDS)
    report = (None if f["report"] is None
              else CorrelationReport.from_dict(f["report"]))
    return report, ExclusionLedger.from_dict(f["ledger"]), f.get("error")


def _combo_fingerprint(manifest: RunManifest, digest: str, template,
                      cfg: InferenceConfig) -> str:
    """SHA-256 over every input a (pair, template) combo's artifacts depend
    on: the template's id, version and body; the pair's TSV bytes and
    column map (digest, its Corpus.digest); seed, and for ICL the effective
    icl_seed; the reply-shaping inference settings; and the mock spec.

    Left out on purpose: out_dir, resume, paths and the transport knobs
    (timeouts, retries, max_in_flight), which change how replies arrive but
    not what they say. Also not covered: the qeharness code version and a
    backend object passed to run().
    """
    doc = {
        "template": [template.id.value, template.version, template.body],
        "corpus": digest,
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
    it is missing, unreadable, not a JSON object or without an "artifacts"
    object."""
    try:
        marker = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return (marker if isinstance(marker, dict)
            and isinstance(marker.get("artifacts"), dict) else {})


def _digests(artifacts: dict[str, Path]) -> dict[str, str | None]:
    """Each artifact's _sha256_of, by kind."""
    return {kind: _sha256_of(path) for kind, path in artifacts.items()}


def _sha256_of(path: Path) -> str | None:
    """The SHA-256 hex digest of the file at path, or None when it cannot
    be read. hashlib and the reads release the GIL, so threads hash files
    in parallel."""
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 18))
    try:
        with path.open("rb", buffering=0) as fh:
            while size := fh.readinto(buffer):
                digest.update(buffer[:size])
    except OSError:
        return None
    return digest.hexdigest()


def _safe(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-._" else "_" for c in name)


# -- result tables -------------------------------------------------------------

_METRIC_ATTR = {"r": "pearson_r", "rho": "spearman_rho", "tau": "kendall_tau"}



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


def _grid(reports: list[CorrelationReport]):
    """(pairs, templates, models, rows): the pairs, templates and models
    present in reports, in table order, and each (pair, template, row) in
    that order whose row, the report of each model or None, holds one."""
    template_order = [t.value for t in TemplateId]
    pairs = sorted({r.pair for r in reports}, key=_pair_sort_key)
    templates = sorted({r.template for r in reports}, key=template_order.index)
    models = sorted({r.model for r in reports})
    by_key = {(r.pair, r.template, r.model): r for r in reports}
    present = {(r.pair, r.template) for r in reports}
    return pairs, templates, models, [
        (pair, template, [by_key.get((pair, template, m)) for m in models])
        for pair in pairs for template in templates
        if (pair, template) in present]


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

    pairs, templates, models, rows = _grid(reports)
    found = {(pair, template, m): r for pair, template, row in rows
             for m, r in zip(models, row) if r is not None}
    # the keys of each pair's best zero-shot, ICL and overall cell; max()
    # returns the first maximal cell in template-then-model order
    zs_best, icl_best, best = ({
        max((k for k in found if k[0] == pair and TemplateId(k[1]) in group),
            default=None, key=lambda k: getattr(found[k], attr))
        for pair in pairs}
        for group in (ZERO_SHOT_TEMPLATES, ICL_TEMPLATES, TemplateId))
    cells = {k: TableCell(value=getattr(r, attr),
                          zero_shot_best=k in zs_best,
                          icl_best=k in icl_best,
                          overall_best=k in best,
                          insignificant=r.significance is Significance.NS)
             for k, r in found.items()}
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
    else:  # the glyphs _LEGEND names
        text += "".join(glyph for marked, glyph in (
            (cell.zero_shot_best, "*"), (cell.icl_best, "^"),
            (cell.overall_best, "#")) if marked)
    if cell.insignificant:
        text += "†"
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
    body = [[pair, template] + [
        _cell_text(table.cells.get((pair, template, m)), fmt == "markdown")
        for m in table.models] for pair, template, _ in _grid(reports)[3]]
    return _layout(["pair", "template"] + table.models, body, fmt,
                   (f"metric: {table.metric}", _LEGEND))


def render_detailed_table(reports: list[CorrelationReport],
                          fmt: str = "plain") -> str:
    """All three coefficients plus the exclusion column per model.

    The exclusion count is flagged with * when more than 10% of a run's
    inferences were dropped, marking the row as untrustworthy.
    """
    _, _, models, rows = _grid(reports)
    header = ["pair", "template"] + [f"{model}:{column}" for model in models
                                     for column in ("r", "rho", "tau", "E")]

    body = []
    for pair, template, row_reports in rows:
        row = [pair, template]
        for r in row_reports:
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
    if k < 1:
        raise ValueError(f"k={k} is below 1")
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
    """rows as TSV that csv's excel-tab reader reads back field for field."""
    lines = ["# error_label vocabulary: " + "; ".join(ERROR_TAXONOMY),
             "pair\tsegment_id\tsource\ttranslation\tgold\tpred\tabs_dev\terror_label"]
    for r in rows:
        source, translation = map(_quoted, (r["source"], r["translation"]))
        lines.append(f"{r['pair']}\t{r['segment_id']}\t{source}"
                     f"\t{translation}\t{r['gold']}\t{r['pred']}"
                     f"\t{r['abs_dev']:.2f}\t")
    write_lines(path, (line + "\n" for line in lines))


def _quoted(text: str) -> str:
    """text, quoted as csv quotes it if it holds a tab, CR, LF or '"'."""
    return ('"' + text.replace('"', '""') + '"'
            if any(c in text for c in '\t\r\n"') else text)
