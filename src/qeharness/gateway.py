"""Dispatch rendered prompts to a chat-completion endpoint, or to a mock.

Exactly one wire protocol is spoken: POST a JSON body with model, a single
user message, temperature, and max_tokens, and read the generated text from
choices[0].message.content. Failures never escape complete(): every
dispatched prompt yields exactly one ModelOutput, failed or not.
"""

from __future__ import annotations

import base64
import http.client
import json
import logging
import math
import os
import random
import select
import ssl
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

from . import __version__
from .corpus import Field, json_fields
from .errors import EndpointMissing
from .prompts import RenderedPrompt
from .seeding import stable_hash

__all__ = [
    "API_KEY_ENV_VAR", "TRANSPORT_OK", "FAIL_SERVER_ERROR", "FAIL_CLIENT_ERROR",
    "FAIL_RATE_LIMITED", "FAIL_TIMEOUT", "FAIL_CONNECTION", "FAIL_PROTOCOL",
    "FAIL_CONTEXT_OVERFLOW", "FAIL_MOCK", "FAIL_BACKEND", "PromptRef",
    "InferenceConfig", "ModelOutput", "TransportError", "HttpBackend",
    "MockBackend", "EchoScore", "Fixed", "Garbage", "Fail", "gold_map",
    "complete", "complete_batch", "estimate_tokens", "prompt_ref_encoder",
    "output_lines",
]

log = logging.getLogger(__name__)
API_KEY_ENV_VAR = "QEHARNESS_API_KEY"

TRANSPORT_OK = "ok"
FAIL_SERVER_ERROR = "ServerError"
FAIL_CLIENT_ERROR = "ClientError"
FAIL_RATE_LIMITED = "RateLimited"
FAIL_TIMEOUT = "Timeout"
FAIL_CONNECTION = "ConnectionError"
FAIL_PROTOCOL = "ProtocolError"
FAIL_CONTEXT_OVERFLOW = "ContextOverflow"
FAIL_MOCK = "MockFailure"
FAIL_BACKEND = "BackendError"  # the backend raised something else


@dataclass(frozen=True)
class PromptRef:
    """Identity of a dispatched prompt, carried through every later stage."""

    pair: str
    segment_id: int
    template: str
    seed: int

    JSON_FIELDS = {"pair": Field((str,)), "segment_id": Field((int,)),
                   "template": Field((str,)), "seed": Field((int,))}

    @classmethod
    def of(cls, prompt: RenderedPrompt) -> "PromptRef":
        return cls(pair=prompt.pair, segment_id=prompt.target_segment_id,
                   template=prompt.template.value, seed=prompt.seed)

    def to_dict(self) -> dict:
        return {"pair": self.pair, "segment_id": self.segment_id,
                "template": self.template, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "PromptRef":
        """The ref to_dict encoded; a missing or mistyped field raises
        ValueError (see json_fields)."""
        return cls(**json_fields(d, cls.JSON_FIELDS))


def prompt_ref_encoder() -> Callable[[PromptRef], str]:
    """A function giving json.dumps(ref.to_dict(), sort_keys=True) for the
    field types PromptRef declares. The refs of one (pair, template) combo
    differ only in segment_id, so the JSON before and after its value is
    escaped once per (pair, seed, template) the function meets."""
    escape = json.encoder.encode_basestring_ascii  # json.dumps' own
    parts: dict = {}

    def encode(ref: PromptRef) -> str:
        key = (ref.pair, ref.seed, ref.template)
        around = parts.get(key)
        if around is None:
            around = parts[key] = (
                f'{{"pair": {escape(ref.pair)}, "seed": {ref.seed!r}, '
                '"segment_id": ', f', "template": {escape(ref.template)}}}')
        return f"{around[0]}{ref.segment_id!r}{around[1]}"
    return encode


@dataclass(frozen=True)
class InferenceConfig:
    """Endpoint and decoding parameters for one run.

    Temperature defaults to 0.0, which gave the most stable scoring output;
    0.85 remains a valid setting for replication. max_context_tokens should
    be 1024 for zero-shot prompts and 4096 for ICL prompts; the pipeline
    applies those defaults when a manifest omits the field.
    """

    endpoint_url: str | None = None
    model_name: str = "unknown-model"
    temperature: float = 0.0
    max_context_tokens: int = 1024
    max_new_tokens: int = 256
    request_timeout: float = 60.0
    max_retries: int = 2
    max_in_flight: int = 4
    retry_backoff_base: float = 1.0
    token_estimator: Callable[[str], int] | None = None

    # every setting but token_estimator, which JSON cannot hold
    JSON_FIELDS = {
        "endpoint_url": Field((str, None)), "model_name": Field((str,)),
        "temperature": Field((int, float), lo=0),
        "max_context_tokens": Field((int,), lo=1),
        "max_new_tokens": Field((int,), lo=1),
        "request_timeout": Field((int, float), lo=0, lo_open=True),
        "max_retries": Field((int,), lo=0), "max_in_flight": Field((int,), lo=1),
        "retry_backoff_base": Field((int, float), lo=0)}

    def __post_init__(self) -> None:
        json_fields(vars(self), self.JSON_FIELDS)
        if not (self.token_estimator is None or callable(self.token_estimator)):
            raise ValueError("token_estimator must be callable or null")


def estimate_tokens(text: str, config: InferenceConfig) -> int:
    """Client-side token estimate: an exact tokenizer when configured,
    otherwise ceil(chars / 3)."""
    if config.token_estimator is not None:
        return config.token_estimator(text)
    return math.ceil(len(text) / 3)


@dataclass(frozen=True)
class ModelOutput:
    prompt_ref: PromptRef
    raw_text: str
    latency: float
    attempt_count: int
    transport_status: str  # TRANSPORT_OK or a FAIL_* reason

    JSON_FIELDS = {"prompt_ref": Field((dict,)), "raw_text": Field((str,)),
                   "latency_ms": Field((int, float), lo=0),
                   "attempts": Field((int,), lo=0), "status": Field((str,))}

    def to_dict(self) -> dict:
        return {
            "prompt_ref": self.prompt_ref.to_dict(),
            "raw_text": self.raw_text,
            "latency_ms": round(self.latency * 1000.0, 3),
            "attempts": self.attempt_count,
            "status": self.transport_status,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelOutput":
        """The output to_dict encoded; a missing or mistyped field raises
        ValueError (see json_fields)."""
        f = json_fields(d, cls.JSON_FIELDS)
        return cls(PromptRef.from_dict(f["prompt_ref"]), f["raw_text"],
                   f["latency_ms"] / 1000.0, f["attempts"], f["status"])


def output_lines(outputs: Iterable[ModelOutput]) -> Iterator[str]:
    """Each output's line, json.dumps(o.to_dict(), sort_keys=True) + "\\n",
    for the field types ModelOutput declares. Each combo's prompt_ref parts
    (prompt_ref_encoder) and each distinct reply are escaped once."""
    escape = json.encoder.encode_basestring_ascii  # json.dumps' own
    ref_json = prompt_ref_encoder()
    replies: dict[str, str] = {}
    for o in outputs:
        reply = replies.get(o.raw_text)
        if reply is None:
            reply = replies[o.raw_text] = escape(o.raw_text)
        yield (f'{{"attempts": {o.attempt_count!r}, "latency_ms": '
               f'{round(o.latency * 1000.0, 3)!r}, "prompt_ref": '
               f'{ref_json(o.prompt_ref)}, "raw_text": {reply}, "status": '
               f'{escape(o.transport_status)}}}\n')


class TransportError(Exception):
    """One failed attempt. retry_after is the delay in seconds a 429 asked
    for in its Retry-After header, when it gave one as delta-seconds."""

    def __init__(self, reason: str, message: str = "", *, retryable: bool,
                 retry_after: float | None = None):
        super().__init__(message or reason)
        self.reason = reason
        self.retryable = retryable
        self.retry_after = retry_after


def _retry_after(value: str | None) -> float | None:
    """Seconds from a Retry-After header in delta-seconds form; None for
    an HTTP-date, a malformed value or no header."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


def _transport_error(exc: Exception) -> TransportError:
    """Classify an exception raised while sending a request or reading its
    response (see _Wire). The order matters: TimeoutError is an OSError."""
    if isinstance(exc, TimeoutError):
        return TransportError(FAIL_TIMEOUT, str(exc), retryable=True)
    if isinstance(exc, OSError):  # refused, reset, broken pipe, DNS, TLS
        return TransportError(FAIL_CONNECTION, str(exc), retryable=True)
    return TransportError(FAIL_PROTOCOL, str(exc), retryable=False)


def _peer_closed(sock) -> bool:
    """Whether an idle keep-alive socket reads as ready. An idle socket has
    nothing to read unless its peer has closed it (or sent stray bytes);
    either way it cannot carry another request."""
    return bool(select.select([sock], [], [], 0)[0])


# http.client's limits: the bytes of one response line, and header lines
_MAX_LINE = 65536
_MAX_HEADERS = 100


def _request_head(conn: http.client.HTTPConnection, target: str,
                  headers: dict[str, str]) -> bytes:
    """The head http.client writes for a POST to target with headers, up to
    "Content-Length: ". conn's send is replaced, so nothing is sent; what
    http.client refuses raises ValueError or HTTPException."""
    sent = []
    conn.send = sent.append
    conn.putrequest("POST", target)
    for name, value in headers.items():
        conn.putheader(name, value)
    conn.putheader("Content-Length", "")
    conn.endheaders()
    return sent[0][:-len(b"\r\n\r\n")]


class _Wire:
    """A pooled connection: http.client's, which only opens the socket, and
    the bytes received on it and not yet read. A peer that closes before a
    response ends raises ConnectionAbortedError; a response that breaks
    HTTP/1.1 or http.client's limits raises ValueError."""

    def __init__(self, conn: http.client.HTTPConnection):
        self.conn = conn
        self.buf = bytearray()

    def _fill(self) -> None:
        data = self.conn.sock.recv(65536)
        if not data:
            raise ConnectionAbortedError(
                "connection closed before the response ended")
        self.buf += data

    def _line(self) -> str:
        """The next line, without its line end."""
        buf, start = self.buf, 0
        while (end := buf.find(b"\n", start, _MAX_LINE)) < 0:
            if len(buf) >= _MAX_LINE:
                raise ValueError("response line too long")
            start = len(buf)
            self._fill()
        line = buf[:end].decode("latin-1").rstrip("\r")
        del buf[:end + 1]
        return line

    def _read(self, length: str, base: int = 10) -> bytes:
        """The next int(length, base) bytes: a Content-Length or chunk size."""
        if (n := int(length, base)) < 0:
            raise ValueError(f"negative length {length!r}")
        while len(self.buf) < n:
            self._fill()
        data = bytes(self.buf[:n])
        del self.buf[:n]
        return data

    def _fields(self) -> dict[str, str]:
        """A header block's fields by lower-case name, up to its blank line."""
        fields = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._line()
            if not line:
                return fields
            name, _, value = line.partition(":")
            fields[name.strip().lower()] = value.strip()
        raise ValueError(f"more than {_MAX_HEADERS} header lines")

    def _chunked(self) -> bytes:
        chunks = []
        while chunk := self._read(self._line().partition(";")[0], 16):
            chunks.append(chunk)
            self._line()  # the chunk's line end
        while self._line():  # trailer fields, dropped
            pass
        return b"".join(chunks)

    def exchange(self, request: bytes) -> tuple[int, dict[str, str], bytes]:
        """Send request, opening the connection if it is new, and read
        the final response, skipping interim (1xx) ones: its status, header
        fields by lower-case name and body. The connection is closed unless
        it may carry another request: HTTP/1.1 without Connection: close, a
        body not delimited by the peer's close, nothing received past it."""
        if self.conn.sock is None:
            self.conn.connect()
        self.conn.sock.sendall(request)
        status = 100
        while status < 200:
            line = self._line()
            parts = line.split(None, 2)
            if not (len(parts) > 1 and parts[0].startswith("HTTP/")
                    and len(parts[1]) == 3 and parts[1].isdigit()
                    and parts[1][0] != "0"):
                raise ValueError(f"bad status line {line!r}")
            version, status = parts[0], int(parts[1])
            fields = self._fields()
        keep = (version == "HTTP/1.1"
                and "close" not in fields.get("connection", "").lower())
        if status in (204, 304):
            body = b""
        elif fields.get("transfer-encoding", "").lower() == "chunked":
            body = self._chunked()
        elif "content-length" in fields:
            body = self._read(fields["content-length"])
        else:  # delimited by the peer's close
            keep = False
            while data := self.conn.sock.recv(65536):
                self.buf += data
            body = bytes(self.buf)
        if not keep or self.buf:
            self.conn.close()
            self.buf.clear()
        return status, fields, body


def _proxy_for(url) -> tuple[str, int, dict[str, str]] | None:
    """(host, port, headers) of the environment's proxy for url, or None
    when there is none or no_proxy exempts the host. Proxies speak plain
    HTTP; credentials in the proxy URL become a Proxy-Authorization
    header."""
    if proxy_bypass(url.hostname):
        return None
    proxies = getproxies()
    scheme = url.scheme if proxies.get(url.scheme) else "all"
    proxy = proxies.get(scheme)
    if not proxy:
        return None
    parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    try:
        port = parts.port or 80
    except ValueError as exc:  # a port that is not a number in 0-65535
        name = (f"{scheme}_proxy" if f"{scheme}_proxy" in os.environ
                else f"{scheme.upper()}_PROXY")
        raise EndpointMissing(f"bad proxy {proxy!r} in {name}: {exc}") from exc
    headers = {}
    if parts.username:
        userinfo = f"{unquote(parts.username)}:{unquote(parts.password or '')}"
        headers["Proxy-Authorization"] = (
            "Basic " + base64.b64encode(userinfo.encode()).decode("ascii"))
    return parts.hostname, port, headers


class HttpBackend:
    """Single-protocol HTTP client; one attempt per call, no retry logic.

    Everything that stays fixed between calls is worked out once, here:
    the endpoint's scheme, host and path, the proxy (read from the
    environment, honouring no_proxy), the TLS context (the system trust
    store) and the request head. An endpoint URL that is missing, or has no
    host, a bad port or a scheme other than http(s), raises EndpointMissing
    here, before any prompt is sent. An API key, when present in the
    environment, rides along as a bearer token.

    http.client only opens connections (TLS, a proxy's CONNECT tunnel) and
    writes the head, with its Host, Accept-Encoding and header checks: a
    header it refuses fails each call as ProtocolError, unsent. Each call
    speaks HTTP/1.1 on the socket (_Wire): head, length and body in one
    sendall, the response read within http.client's limits (65,536 bytes a
    line, 100 header lines). A response cut short is a retried
    ConnectionError.

    Keep-alive connections are pooled in the backend, not per thread, so
    they outlive the batch dispatcher's thread pools. A call takes an idle
    connection (dropping any whose peer has closed it) or opens one, and
    gives it back once the response is read, if that response lets the
    connection carry another; a transport error closes it instead.
    Redirects are not followed. close() releases the idle connections; the
    backend stays usable.
    """

    deterministic = False
    waits = True  # every call waits on the network

    def __init__(self, config: InferenceConfig):
        if not config.endpoint_url:
            raise EndpointMissing("no inference endpoint configured")
        url = urlsplit(config.endpoint_url)
        try:
            port = url.port
        except ValueError as exc:
            raise EndpointMissing(f"invalid endpoint URL: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.hostname:
            raise EndpointMissing(
                f"unsupported endpoint URL {config.endpoint_url!r}: "
                "need http(s)://host")
        self._config = config
        headers = {"Content-Type": "application/json",
                   "User-Agent": f"qeharness/{__version__}"}
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        self._idle: list[_Wire] = []
        self._lock = threading.Lock()
        target = url.path or "/"
        if url.query:
            target += f"?{url.query}"
        host, port = url.hostname, port or (443 if url.scheme == "https" else 80)
        self._address = (host, port)
        self._tunnel = None
        self._connection = (
            partial(http.client.HTTPSConnection,
                    context=ssl.create_default_context())
            if url.scheme == "https" else http.client.HTTPConnection)
        proxy = _proxy_for(url)
        if proxy is not None:
            proxy_host, proxy_port, proxy_headers = proxy
            self._address = (proxy_host, proxy_port)
            if url.scheme == "https":
                self._tunnel = (host, port, proxy_headers)
            else:  # a plain-HTTP proxy takes the absolute URI
                target = f"http://{url.netloc}{target}"
                headers.update(proxy_headers)
        self._head, self._refused = b"", None
        try:
            self._head = _request_head(self._open(), target, headers)
        except (http.client.HTTPException, ValueError) as exc:
            self._refused = exc

    def _open(self) -> http.client.HTTPConnection:
        conn = self._connection(*self._address,
                                timeout=self._config.request_timeout)
        if self._tunnel is not None:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _take(self) -> _Wire:
        """An idle connection its peer has not closed, or a new one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                wire = self._idle.pop()
            if not _peer_closed(wire.conn.sock):
                return wire
            wire.conn.close()
        return _Wire(self._open())

    def close(self) -> None:
        """Close the idle connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for wire in idle:
            wire.conn.close()

    def generate_once(self, prompt: RenderedPrompt) -> str:
        if self._refused is not None:
            raise _transport_error(self._refused) from self._refused
        cfg = self._config
        payload = {
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": prompt.text}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_new_tokens,
        }
        body = json.dumps(payload).encode()
        wire = self._take()
        try:
            status, fields, data = wire.exchange(
                b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
        # connect() reads a proxy's answer to CONNECT with http.client
        except (OSError, http.client.HTTPException, ValueError) as exc:
            wire.conn.close()
            raise _transport_error(exc) from exc
        if wire.conn.sock is not None:  # the response kept it open
            with self._lock:
                self._idle.append(wire)

        if status == 429:
            raise TransportError(
                FAIL_RATE_LIMITED, "HTTP 429", retryable=True,
                retry_after=_retry_after(fields.get("retry-after")))
        if status >= 500:
            raise TransportError(FAIL_SERVER_ERROR,
                                 f"HTTP {status}", retryable=True)
        if status != 200:
            # non-429 4xx (and unfollowed 3xx) will not improve on retry
            raise TransportError(FAIL_CLIENT_ERROR,
                                 f"HTTP {status}", retryable=False)
        try:
            content = json.loads(data)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(FAIL_PROTOCOL,
                                 f"malformed response: {exc}", retryable=False)
        if not isinstance(content, str):
            raise TransportError(FAIL_PROTOCOL, "content is not text",
                                 retryable=False)
        return content


# -- mock backend ------------------------------------------------------------

@dataclass(frozen=True)
class EchoScore:
    """Emit "Score: {gold}" for the target segment's gold score, or
    "Score: {round(gold + offset, 1)}" with an offset."""

    offset: float | None = None


@dataclass(frozen=True)
class Fixed:
    text: str


@dataclass(frozen=True)
class Garbage:
    """With probability p emit digit-free text; otherwise echo the gold
    score. The coin is hashed from (seed, prompt ref), so a given prompt
    always lands the same way."""

    p: float


@dataclass(frozen=True)
class Fail:
    """Fail transport for the listed segment ids; echo the gold score
    elsewhere."""

    segment_ids: frozenset = frozenset()


_GARBAGE_TEXTS = (
    "I cannot assess this translation.",
    "No score can be determined from the given text.",
    "unscorable output",
    "The translation quality is impossible to judge here.",
)


def gold_map(segments) -> dict[tuple[str, int], float]:
    """Index gold DA means by (pair, segment id) for the mock backend."""
    return {(str(s.pair), s.id): s.da_mean for s in segments}


class MockBackend:
    """Deterministic in-process stand-in for an inference endpoint.

    Fully determined by (policy, gold map, seed); reports zero latency so
    persisted runs against it are byte-identical. An optional artificial
    latency (used by concurrency tests) does not affect outputs; without
    it the backend never waits, so complete_batch calls it inline. The
    instrumented in-flight counter records the high-water mark of
    simultaneous generate calls.
    """

    deterministic = True

    def __init__(self, policy, gold: dict[tuple[str, int], float] | None = None,
                 seed: int = 0, latency: float = 0.0):
        self.policy = policy
        self.gold = gold or {}
        self.seed = seed
        self.latency = latency
        self.calls = 0
        self.max_observed_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    @property
    def waits(self) -> bool:
        """Whether a call sleeps: only with an artificial latency."""
        return self.latency > 0

    def _gold_of(self, prompt: RenderedPrompt) -> float:
        key = (prompt.pair, prompt.target_segment_id)
        if key not in self.gold:
            raise KeyError(f"mock backend has no gold score for {key}")
        return self.gold[key]

    def _apply(self, policy, prompt: RenderedPrompt) -> str:
        if isinstance(policy, Fixed):
            return policy.text
        if isinstance(policy, EchoScore):
            gold = self._gold_of(prompt)
            if policy.offset is not None:
                gold = round(gold + policy.offset, 1)
            return f"Score: {gold}"
        if isinstance(policy, Garbage):
            draw = stable_hash(self.seed, "garbage", prompt.pair,
                               prompt.target_segment_id) % 10**9 / 10**9
            if draw < policy.p:
                idx = stable_hash(self.seed, "garbage-text", prompt.pair,
                                  prompt.target_segment_id)
                return _GARBAGE_TEXTS[idx % len(_GARBAGE_TEXTS)]
            return self._apply(EchoScore(), prompt)
        if isinstance(policy, Fail):
            if prompt.target_segment_id in policy.segment_ids:
                raise TransportError(FAIL_MOCK, "programmed failure",
                                     retryable=False)
            return self._apply(EchoScore(), prompt)
        raise TypeError(f"unknown mock policy: {policy!r}")

    def generate_once(self, prompt: RenderedPrompt) -> str:
        with self._lock:
            self.calls += 1
            self._in_flight += 1
            self.max_observed_in_flight = max(self.max_observed_in_flight,
                                              self._in_flight)
        try:
            if self.latency:
                time.sleep(self.latency)
            return self._apply(self.policy, prompt)
        finally:
            with self._lock:
                self._in_flight -= 1


# -- dispatch ----------------------------------------------------------------

def complete(config: InferenceConfig, prompt: RenderedPrompt,
             backend=None) -> ModelOutput:
    """Send one prompt; always returns a ModelOutput.

    Prompts whose estimated token count exceeds the context window fail
    before any network call. Retryable transport failures back off
    exponentially (base doubling, jittered) up to max_retries extra
    attempts; a 429 that names its delay in Retry-After waits that long
    instead. Any other exception from the backend is logged and fails the
    prompt, unretried, as BackendError.
    """
    if backend is None:
        with closing(HttpBackend(config)) as backend:
            return complete(config, prompt, backend)
    ref = PromptRef.of(prompt)

    if estimate_tokens(prompt.text, config) > config.max_context_tokens:
        return ModelOutput(ref, "", 0.0, 0, FAIL_CONTEXT_OVERFLOW)

    started = time.monotonic()
    attempts = 0
    failure = FAIL_PROTOCOL
    while attempts <= config.max_retries:
        attempts += 1
        try:
            text = backend.generate_once(prompt)
        except TransportError as exc:
            failure = exc.reason
            if not exc.retryable or attempts > config.max_retries:
                break
            if exc.retry_after is not None:
                delay = exc.retry_after
            else:
                delay = config.retry_backoff_base * (2 ** (attempts - 1))
                delay *= 1.0 + random.random() * 0.25
            if delay > 0:
                time.sleep(delay)
            continue
        except Exception:  # a backend fault fails this prompt, not the run
            log.warning("backend raised on %s", ref, exc_info=True)
            failure = FAIL_BACKEND
            break
        latency = 0.0 if backend.deterministic else time.monotonic() - started
        return ModelOutput(ref, text, latency, attempts, TRANSPORT_OK)

    latency = 0.0 if backend.deterministic else time.monotonic() - started
    return ModelOutput(ref, "", latency, attempts, failure)


def complete_batch(config: InferenceConfig, prompts: list[RenderedPrompt],
                   backend) -> list[ModelOutput]:
    """Dispatch prompts with at most max_in_flight outstanding requests.

    Output order matches input order and every prompt yields exactly one
    output; per-item failures never abort the batch.

    Dispatch runs inline, one prompt after another on the calling thread,
    when the backend states that its calls never wait (`waits` is false, as
    for a MockBackend without latency): under the interpreter lock, threads
    cannot overlap work that never waits, so a pool would only add its own
    overhead. A backend that waits gets a pool of max_in_flight threads.
    """
    if not backend.waits:
        return [complete(config, p, backend) for p in prompts]
    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        return list(pool.map(lambda p: complete(config, p, backend), prompts))
