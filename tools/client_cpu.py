"""Measure HttpBackend's client CPU and wall time per request, in process.

    python3 tools/client_cpu.py [--prompts 600] [--rounds 3] [--seed 1] \
        [--pair et-en] [--work DIR]

Generates perfbench's corpora for the seed (perfbench/corpora.py), starts
perfbench/server.py on the pair's test split, and renders the pair's gemba
prompts. Each round resets the server, so every round meets the same
first-attempt 503s, then sends the first --prompts prompts one after
another through one HttpBackend with `complete`, no backoff between
attempts, timing the calling thread's CPU (time.thread_time) and the wall
clock. Prints one JSON object: the median over rounds of the client CPU
and of the wall time per request (an attempt; a retried prompt makes two)
in ms, each round's readings, and the Python version. Every prompt must
come back ok, else the exit status is 1.
The qeharness measured is this checkout's src/. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from contextlib import closing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import corpora  # noqa: E402  (perfbench's corpus generator)
from qeharness.corpus import load_corpora  # noqa: E402
from qeharness.gateway import (TRANSPORT_OK, HttpBackend,  # noqa: E402
                               InferenceConfig, complete)
from qeharness.prompts import (TemplateId, load_templates,  # noqa: E402
                               render_zero_shot)


def _round(config: InferenceConfig, prompts, endpoint: str) -> dict:
    reset = endpoint.replace("/v1/chat/completions", "/reset")
    urllib.request.urlopen(urllib.request.Request(reset, b"", method="POST"),
                           timeout=10).close()
    with closing(HttpBackend(config)) as backend:
        cpu, wall = time.thread_time(), time.perf_counter()
        outputs = [complete(config, p, backend) for p in prompts]
        cpu, wall = time.thread_time() - cpu, time.perf_counter() - wall
    requests = sum(o.attempt_count for o in outputs)
    return {"requests": requests, "client_cpu_ms": cpu * 1e3 / requests,
            "wall_ms": wall * 1e3 / requests,
            "failed": sum(o.transport_status != TRANSPORT_OK for o in outputs)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prompts", type=int, default=600)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pair", default="et-en")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the corpora (default: a temporary one)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        manifest = corpora.generate(work / "corpora", args.seed)
        (corpus,) = load_corpora(manifest, pairs=[args.pair])
        template = load_templates()[TemplateId.GEMBA]
        prompts = render_zero_shot(template, corpus.test[:args.prompts],
                                   args.seed)
        server = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "server.py"),
             "--corpora", str(work / "corpora"), "--pairs", args.pair,
             "--seed", str(args.seed)], stdout=subprocess.PIPE, text=True)
        try:
            port = int(server.stdout.readline().split()[1])
            endpoint = f"http://127.0.0.1:{port}/v1/chat/completions"
            config = InferenceConfig(
                endpoint_url=endpoint, model_name="client-cpu",
                max_context_tokens=1_000_000, max_retries=2,
                retry_backoff_base=0.0, max_in_flight=1)
            rounds = [_round(config, prompts, endpoint)
                      for _ in range(args.rounds)]
        finally:
            server.terminate()
            server.wait()
            server.stdout.close()
    print(json.dumps({
        "prompts": len(prompts), "rounds": rounds,
        "client_cpu_ms_per_request": statistics.median(
            r["client_cpu_ms"] for r in rounds),
        "wall_ms_per_request": statistics.median(r["wall_ms"] for r in rounds),
        "python": platform.python_version()}))
    return 1 if any(r["failed"] for r in rounds) else 0


if __name__ == "__main__":
    sys.exit(main())
