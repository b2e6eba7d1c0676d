"""stable_hash keys every seeded choice, so its bytes are pinned: the
payload is each part's str, UTF-8 encoded, joined by NUL bytes."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, strategies as st

from qeharness.seeding import stable_hash


def _per_part(*parts: object) -> int:
    """stable_hash as first written: each part encoded on its own."""
    payload = b"\x00".join(str(p).encode("utf-8") for p in parts)
    return int.from_bytes(hashlib.sha256(payload).digest(), "big")


_TEXT = st.text(alphabet=st.sampled_from("a\x00é€ग👍\t "), max_size=12) | st.text()
_PART = _TEXT | st.integers() | st.tuples(_TEXT, st.integers())


@given(st.lists(_PART, max_size=6))
def test_stable_hash_matches_the_per_part_encoding(parts):
    assert stable_hash(*parts) == _per_part(*parts)


@pytest.mark.parametrize("parts", [("\ud800",), (3, "en-gu", "a\udfffb")])
def test_lone_surrogate_is_refused_by_both_encodings(parts):
    with pytest.raises(UnicodeEncodeError):
        stable_hash(*parts)
    with pytest.raises(UnicodeEncodeError):
        _per_part(*parts)
