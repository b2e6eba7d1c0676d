"""Loopback chat-completions server for the http_loopback workload.

Run as its own process:

    python3 perfbench/server.py --corpora DIR --pairs en-mr,si-en --seed N

It binds 127.0.0.1 on a free port and prints "PORT <n>" once it listens.
Each POST /v1/chat/completions waits a fixed service time and answers with a
verbose reply that carries the gold score of the prompt's target segment
after a label, among distractor numerals the extraction grammar must skip.
A seeded share of prompts gets one 503 on their first attempt, so the
client's retry path runs. GET /stats reports the requests served and the
server's own handling-time median; POST /reset clears both and the
first-attempt memory, so every measured run sees the same failures.

The gold map (translation text -> DA mean) comes from the test splits of the
given pairs in the generated corpus directory; the target translation is
the last quoted "Translation"/"Translated text" line of the prompt, which
holds for every template qeharness ships.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from corpora import read_tsv

SERVICE_S = 0.003
# prompts per 10,000 that get a 503 on their first attempt
FAIL_PER_10K = 100

# Replies with the gold score behind a label. The numerals before it are
# distractors: scale bounds ("from 0 to 100"), error counts, word counts.
_REPLIES = (
    "The translation conveys most of the source meaning on a scale from 0 "
    "to 100, with 2 minor errors in word order and 1 omitted modifier. "
    "Fluency is acceptable throughout, although some phrasing is unnatural "
    "for a native reader.\nScore: {gold}\nThe {words} words of the "
    "translation were all checked.",
    "Assessment: 3 spans were compared against the 0-100 guideline ranges. "
    "Adequacy is good, with 2 minor errors and no critical error; terms are "
    "rendered consistently.\nRating: {gold} out of 100.",
    "Quality estimate for this sentence pair\nErrors: 2 minor, 0 major\n"
    "Length: {words} words\nFinal score: {gold}\nScale used: from 0 to 100, "
    "where 100 means a perfect translation.",
)


def target_translation(prompt: str) -> str:
    """The quoted text of the prompt's last translation line."""
    start = max(prompt.rfind('\nTranslation: "'), prompt.rfind('\nTranslated text: "'))
    if start < 0:
        raise KeyError("prompt has no translation line")
    open_quote = prompt.index('"', start)
    close_quote = prompt.index('"\n', open_quote + 1)
    return prompt[open_quote + 1:close_quote]


class _State:
    def __init__(self, gold: dict[str, float], seed: int):
        self.gold = gold
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.failed_once: set[bytes] = set()
            self.handling_ms: list[float] = []
            self.served_503 = 0

    def fails_first_attempt(self, digest: bytes) -> bool:
        if int.from_bytes(digest[:4], "big") % 10_000 >= FAIL_PER_10K:
            return False
        with self.lock:
            if digest in self.failed_once:
                return False
            self.failed_once.add(digest)
            self.served_503 += 1
            return True


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    state: _State

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib name
        pass

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, b"{}")
            return
        st = self.state
        with st.lock:
            stats = {"requests": len(st.handling_ms),
                     "served_503": st.served_503,
                     "handling_p50_ms": (statistics.median(st.handling_ms)
                                         if st.handling_ms else 0.0)}
        self._send(200, json.dumps(stats).encode())

    def do_POST(self) -> None:
        started = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        st = self.state
        if self.path == "/reset":
            st.reset()
            self._send(200, b"{}")
            return
        prompt = json.loads(body)["messages"][0]["content"]
        digest = hashlib.sha256(f"{st.seed}\x00{prompt}".encode()).digest()
        if st.fails_first_attempt(digest):
            self._send(503, b'{"error": "busy"}')
        else:
            translation = target_translation(prompt)
            reply = _REPLIES[digest[4] % len(_REPLIES)].format(
                gold=st.gold[translation], words=len(translation.split()))
            time.sleep(SERVICE_S)
            self._send(200, json.dumps({
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant",
                                         "content": reply}}]}).encode())
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with st.lock:
            st.handling_ms.append(elapsed_ms)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpora", required=True, type=Path)
    parser.add_argument("--pairs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    gold = {}
    for pair in args.pairs.split(","):
        for _, translation, score in read_tsv(args.corpora / f"{pair}.test.tsv"):
            if translation in gold:
                raise SystemExit(f"translation occurs twice: {translation!r}")
            gold[translation] = score
    _Handler.state = _State(gold, args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
