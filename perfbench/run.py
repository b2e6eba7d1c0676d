"""Benchmark of the qeharness batch harness, run from the repository root:

    python3 perfbench/run.py --workload mock_full --seed 1 --seconds 10 --trace 0

Set-up generates the corpora from the seed, starts the loopback server for
http_loopback and builds the finished run directory for mock_resume. The
benchmark then calls the workload in a fresh worker process per call until
--seconds have passed, checks every call's outputs, and prints a report
followed by one JSON line with the end-to-end metrics of BENCHMARK.json
(--trace 0) or, from traced calls alternating with untraced ones, its
per-layer metrics and the tracing overhead (--trace 1). It exits 1 when a
check fails and 2 when the harness source is missing.

setup_s adds up what a run needs besides its timed calls: generating the
corpora, starting the server, building the resume directory, and a worker's
start-up (the interpreter and the import of qeharness). Corpus generation is
repeated and worker start-up recurs with every call; each counts with its
fastest sample, the least host-dependent reading of a fixed amount of work.

Working files live under .perfbench_work/ at the repository root; each
invocation removes its own and keeps a results file (and, when traced, the
spans of its last traced call) under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
# every invocation ends well inside the 180 s it is allowed
BUDGET_S = 165.0


class BenchError(Exception):
    """A failed check or a failed step; the run reports no metrics."""


class LoopbackServer:
    """server.py in a subprocess, serving the http_loopback pairs."""

    def __init__(self, corpus_dir: Path, pairs, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--corpora",
             str(corpus_dir), "--pairs", ",".join(pairs), "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.stop()
            raise BenchError("loopback server did not start")
        self.endpoint = (f"http://127.0.0.1:{int(line.split()[1])}"
                         "/v1/chat/completions")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def call_worker(spec: dict, deadline: float) -> dict:
    """One measured call in a fresh process; raises on a failed check."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the call could start")
    spec = dict(spec, launched=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{spec['workload']} call overran the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["errors"]:
        raise BenchError(f"{spec['workload']}: " + "; ".join(report["errors"]))
    return report


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = time.monotonic() + BUDGET_S
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.results = WORK / "results"
        self.manifest: Path | None = None
        self.server: LoopbackServer | None = None
        self.resume_dir: Path | None = None
        self.expected_digest: str | None = None
        self.setup_samples: list[float] = []
        self.setup_once_s = 0.0

    def _spec(self, out_dir: Path, traced: bool) -> dict:
        spec = {"workload": self.workload, "corpora": str(self.manifest),
                "out_dir": str(out_dir), "seed": self.seed}
        if self.server:
            spec["endpoint"] = self.server.endpoint
        if traced:
            spec["trace_path"] = str(
                self.results / f"{self.workload}-seed{self.seed}-spans.jsonl")
        return spec

    def set_up(self) -> None:
        """Generate the corpora SETUP_REPEATS times, keeping the last; start
        the server or build the resume directory once."""
        import corpora
        import worker
        for k in range(SETUP_REPEATS):
            if k:
                shutil.rmtree(corpus_dir)
            started = time.perf_counter()
            corpus_dir = self.dir / f"corpora{k}"
            self.manifest = corpora.generate(corpus_dir, self.seed)
            self.setup_samples.append(time.perf_counter() - started)
        started = time.perf_counter()
        if self.workload == "http_loopback":
            self.server = LoopbackServer(corpus_dir, worker.HTTP_PAIRS, self.seed)
        if self.workload == "mock_resume":
            self.resume_dir = self.dir / "resume"
            spec = dict(self._spec(self.resume_dir, False), workload="mock_full")
            self.expected_digest = call_worker(spec, self.deadline)["digest"]
        self.setup_once_s = time.perf_counter() - started

    def measure(self) -> tuple[list[dict], list[dict]]:
        """Untraced calls, and with --trace 1 traced calls alternating with
        them, until --seconds have passed; at least one of each. No round
        starts that could overrun the time budget."""
        plain, traced = [], []
        started = time.monotonic()
        n, round_s = 0, 0.0
        while n == 0 or (
                time.monotonic() - started < self.seconds
                and self.deadline - time.monotonic() > 2 * round_s):
            round_start = time.monotonic()
            for is_traced in ((False, True) if self.trace else (False,)):
                out_dir = self.resume_dir or self.dir / f"out{n}"
                report = call_worker(self._spec(out_dir, is_traced), self.deadline)
                (traced if is_traced else plain).append(report)
                if not self.resume_dir:
                    shutil.rmtree(out_dir)
            round_s = time.monotonic() - round_start
            n += 1
        digests = {r["digest"] for r in plain + traced}
        if self.expected_digest:
            digests.add(self.expected_digest)
        if len(digests) != 1:
            raise BenchError(f"artifact digests differ between calls: {sorted(digests)}")
        return plain, traced

    def close(self) -> None:
        if self.server:
            self.server.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(bench: Bench, plain: list[dict]) -> dict[str, float]:
    return {
        "setup_s": (min(bench.setup_samples) + bench.setup_once_s
                    + min(r["startup_s"] for r in plain)),
        "items_per_s": median([r["items"] / r["wall_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "artifact_mb": median([r["written_bytes"] / 1e6 for r in plain]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    def value(report: dict) -> dict[str, float]:
        layers, counts = report["layers"], report["counts"]

        def layer(name: str, field: str) -> float:
            return layers.get(name, {}).get(field, 0)

        def per(total: float, n: float, scale: float) -> float:
            return total / n * scale if n else 0.0

        requests = counts.get("gateway.requests", 0)
        overflow = counts.get("gateway.context_overflow", 0)
        attempts = layer("gateway.generate_once", "calls")
        outputs = counts.get("extraction.outputs", 0)
        client_p50 = report.get("latency_p50_ms", 0.0)
        server_p50 = report.get("server", {}).get("handling_p50_ms", 0.0)
        return {
            "corpus.load_s": layer("corpus.load", "total_s"),
            "prompts.select_icl_s": layer("prompts.select_icl", "total_s"),
            "prompts.select_icl.calls": layer("prompts.select_icl", "calls"),
            "seeding.sha256_calls": counts.get("seeding.sha256_calls", 0),
            "prompts.render_us": per(layer("prompts.render", "total_s"),
                                     layer("prompts.render", "calls"), 1e6),
            "prompts.render.calls": layer("prompts.render", "calls"),
            "gateway.dispatch_us": per(layer("gateway.complete_batch", "self_s"),
                                       report["items"], 1e6),
            "gateway.requests": requests,
            "gateway.attempts": attempts,
            "gateway.retries": attempts - (requests - overflow),
            "gateway.failed": counts.get("gateway.failed", 0),
            "gateway.context_overflow": overflow,
            "gateway.backend_busy_s": layer("gateway.generate_once", "total_s"),
            "gateway.client_overhead_ms": client_p50 - server_p50,
            "gateway.latency_p50_ms": client_p50,
            "gateway.latency_p99_ms": report.get("latency_p99_ms", 0.0),
            "extraction.us_per_output": per(
                layer("extraction.extract_batch", "total_s"), outputs, 1e6),
            "extraction.excluded_share": per(
                counts.get("extraction.excluded", 0), outputs, 1.0),
            "metrics.evaluate_ms": per(layer("metrics.evaluate", "total_s"),
                                       layer("metrics.evaluate", "calls"), 1e3),
            "pipeline.self_s": layer("pipeline.run", "self_s"),
            "sft_export.self_s": layer("sft_export.export", "self_s"),
        }

    values = [value(r) for r in traced]
    metrics = {name: median([v[name] for v in values]) for name in values[0]}
    metrics["tracing.overhead"] = (median([r["wall_s"] for r in traced])
                                   / median([r["wall_s"] for r in plain]) - 1.0)
    return metrics


def provenance() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(), "cpu": cpu,
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(whys)}")
    if not (ROOT / "src" / "qeharness" / "__init__.py").is_file():
        print(f"error: no qeharness source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.results.mkdir(parents=True, exist_ok=True)
    try:
        bench.set_up()
        plain, traced = bench.measure()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    values = per_layer(plain, traced) if args.trace else end_to_end(bench, plain)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    attempted = sum(r["items"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    info = {
        "workload": args.workload, "why": whys[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "calls": len(plain), "traced_calls": len(traced),
        "setup_samples_s": bench.setup_samples,
        "setup_once_s": bench.setup_once_s,
        "startup_s": [r["startup_s"] for r in plain],
        "failed_share": failed / attempted,
        "wall_s": [r["wall_s"] for r in plain],
        "provenance": provenance(),
    }
    if args.workload == "http_loopback":
        info["latency_p50_ms"] = median([r["latency_p50_ms"] for r in plain])
        info["latency_p99_ms"] = median([r["latency_p99_ms"] for r in plain])
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (bench.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(info, **result), indent=2) + "\n",
                  encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} calls, {len(traced)} traced, "
          f"{len(bench.setup_samples)} set-ups")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  {'failed_share':28s} {info['failed_share']:14.4f} ratio "
          f"({failed} of {attempted})")
    for name in ("latency_p50_ms", "latency_p99_ms"):
        if name in info:
            print(f"  {name:28s} {info[name]:14.4f} ms")
    print("  provenance: " + json.dumps(info["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
