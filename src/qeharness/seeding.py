"""Deterministic, platform-stable selection helpers.

All seeded choices in the harness (exemplar picks, sentence samples, export
shuffles) are keyed through SHA-256 rather than a stateful RNG so that the
same seed yields byte-identical artifacts on any platform and any Python
build, independent of iteration order elsewhere in the program.
"""

from __future__ import annotations

import hashlib
from typing import Sequence, TypeVar

T = TypeVar("T")


def stable_hash(*parts: object) -> int:
    """256-bit integer digest of the given parts, null-byte delimited."""
    payload = "\x00".join(map(str, parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


def rank_key(seed: int, *parts: object):
    """Sort key assigning each item a pseudo-random but reproducible rank."""
    return stable_hash(seed, *parts)


def seeded_order(items: Sequence[T], seed: int, *context: object,
                 key=lambda item: item) -> list[T]:
    """Return items in a seeded pseudo-random permutation.

    The permutation depends only on (seed, context, key(item)) per item, so
    it is insensitive to the input ordering of `items`.
    """
    return sorted(items, key=lambda it: rank_key(seed, *context, key(it)))
