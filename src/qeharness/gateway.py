"""Dispatch rendered prompts to a chat-completion endpoint, or to a mock.

Exactly one wire protocol is spoken: POST a JSON body with model, a single
user message, temperature, and max_tokens, and read the generated text from
choices[0].message.content. Transport failures never escape complete(): every
dispatched prompt yields exactly one ModelOutput, failed or not.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import requests

from .errors import EndpointMissing
from .prompts import RenderedPrompt
from .seeding import stable_hash

__all__ = [
    "API_KEY_ENV_VAR", "TRANSPORT_OK", "FAIL_SERVER_ERROR", "FAIL_CLIENT_ERROR",
    "FAIL_RATE_LIMITED", "FAIL_TIMEOUT", "FAIL_CONNECTION", "FAIL_PROTOCOL",
    "FAIL_CONTEXT_OVERFLOW", "FAIL_MOCK", "PromptRef", "InferenceConfig",
    "ModelOutput", "TransportError", "HttpBackend", "MockBackend",
    "EchoScore", "Fixed", "Garbage", "Fail", "gold_map",
    "complete", "complete_batch", "estimate_tokens",
]

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


@dataclass(frozen=True)
class PromptRef:
    """Identity of a dispatched prompt, carried through every later stage."""

    pair: str
    segment_id: int
    template: str
    seed: int

    @classmethod
    def of(cls, prompt: RenderedPrompt) -> "PromptRef":
        return cls(pair=prompt.pair, segment_id=prompt.target_segment_id,
                   template=prompt.template.value, seed=prompt.seed)

    def to_dict(self) -> dict:
        return {"pair": self.pair, "segment_id": self.segment_id,
                "template": self.template, "seed": self.seed}

    @classmethod
    def from_dict(cls, d: dict) -> "PromptRef":
        return cls(pair=d["pair"], segment_id=d["segment_id"],
                   template=d["template"], seed=d["seed"])


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

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        for name in ("max_context_tokens", "max_new_tokens", "max_in_flight"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


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
        return cls(prompt_ref=PromptRef.from_dict(d["prompt_ref"]),
                   raw_text=d["raw_text"],
                   latency=d["latency_ms"] / 1000.0,
                   attempt_count=d["attempts"],
                   transport_status=d["status"])


class TransportError(Exception):
    def __init__(self, reason: str, message: str = "", *, retryable: bool):
        super().__init__(message or reason)
        self.reason = reason
        self.retryable = retryable


class HttpBackend:
    """Single-protocol HTTP client; one attempt per call, no retry logic.

    An API key, when present in the environment, rides along as a bearer
    token. Plain requests.post keeps the backend safe for use from the
    batch dispatcher's worker threads.
    """

    deterministic = False
    waits = True  # every call waits on the network

    def __init__(self, config: InferenceConfig):
        if not config.endpoint_url:
            raise EndpointMissing("no inference endpoint configured")
        self._config = config
        self._headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV_VAR)
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    def generate_once(self, prompt: RenderedPrompt) -> str:
        cfg = self._config
        payload = {
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": prompt.text}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_new_tokens,
        }
        try:
            resp = requests.post(cfg.endpoint_url, json=payload,
                                 headers=self._headers,
                                 timeout=cfg.request_timeout)
        except requests.Timeout as exc:
            raise TransportError(FAIL_TIMEOUT, str(exc), retryable=True)
        except requests.ConnectionError as exc:
            raise TransportError(FAIL_CONNECTION, str(exc), retryable=True)
        except requests.RequestException as exc:
            raise TransportError(FAIL_PROTOCOL, str(exc), retryable=False)

        if resp.status_code == 429:
            raise TransportError(FAIL_RATE_LIMITED, "HTTP 429", retryable=True)
        if resp.status_code >= 500:
            raise TransportError(FAIL_SERVER_ERROR,
                                 f"HTTP {resp.status_code}", retryable=True)
        if resp.status_code != 200:
            # non-429 4xx will not improve on retry
            raise TransportError(FAIL_CLIENT_ERROR,
                                 f"HTTP {resp.status_code}", retryable=False)
        try:
            content = resp.json()["choices"][0]["message"]["content"]
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
    """Emit "Score: {f(gold)}" for the target segment's gold score."""

    transform: Callable[[float], object] | None = None


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
    """Fail transport for the listed segment ids; defer to `base` elsewhere."""

    segment_ids: frozenset = frozenset()
    base: object = field(default_factory=EchoScore)


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
            value = policy.transform(gold) if policy.transform else gold
            return f"Score: {value}"
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
            return self._apply(policy.base, prompt)
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
    attempts.
    """
    if backend is None:
        backend = HttpBackend(config)
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
            delay = config.retry_backoff_base * (2 ** (attempts - 1))
            if delay > 0:
                time.sleep(delay * (1.0 + random.random() * 0.25))
            continue
        latency = 0.0 if backend.deterministic else time.monotonic() - started
        return ModelOutput(ref, text, latency, attempts, TRANSPORT_OK)

    latency = 0.0 if backend.deterministic else time.monotonic() - started
    return ModelOutput(ref, "", latency, attempts, failure)


def complete_batch(config: InferenceConfig, prompts: list[RenderedPrompt],
                   backend=None) -> list[ModelOutput]:
    """Dispatch prompts with at most max_in_flight outstanding requests.

    Output order matches input order and every prompt yields exactly one
    output; per-item failures never abort the batch.

    Dispatch runs inline, one prompt after another on the calling thread,
    when the backend states that its calls never wait (`waits` is false, as
    for a MockBackend without latency): under the interpreter lock, threads
    cannot overlap work that never waits, so a pool would only add its own
    overhead. A backend that waits, or does not say, gets a pool of
    max_in_flight threads.
    """
    if not prompts:
        return []
    if backend is None:
        backend = HttpBackend(config)
    if not getattr(backend, "waits", True):
        return [complete(config, p, backend) for p in prompts]
    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        return list(pool.map(lambda p: complete(config, p, backend), prompts))
