"""Irreversible fixed-width encoding of de-identified messages.

Messages are hashed with the SHAKE-128 extendable-output function and
truncated to a configurable byte width; the same function applied to the
event pattern yields the category key. Hash-to-text dictionaries detect
truncation collisions instead of silently merging distinct messages, and a
storage report quantifies how much smaller the encoded corpus is.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .model import DeidentifiedEntry, EncodedEntry, _trusted_encoded_entry


class CollisionDetected(RuntimeError):
    """Two distinct texts truncated to the same key; raise the digest width and re-run."""


@dataclass(frozen=True)
class EncoderConfig:
    """Digest width.

    The operational minimum width is 4 bytes (8 hex chars); 1-3 bytes are
    accepted here so collision handling can be exercised deliberately, and
    the command-line front end refuses them.
    """

    digest_length_bytes: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.digest_length_bytes <= 32:
            raise ValueError("digest_length_bytes must be in [1, 32]")


def hash_text(text: str, cfg: EncoderConfig = EncoderConfig()) -> str:
    """SHAKE-128 over the exact UTF-8 bytes of ``text``, truncated, lowercase hex.

    No normalization and no trailing newline: equal strings give equal keys
    on every platform, and nothing else enters the digest.
    """
    return hashlib.shake_128(text.encode("utf-8")).hexdigest(cfg.digest_length_bytes)


def _safe_digest_bytes(n: int) -> int:
    """The smallest --digest-bytes (4-32) at which n keys collide with probability below 1e-6.

    Uses the birthday estimate 1 - exp(-n^2 / 2^(8b+1)) for b bytes.
    """
    return next((b for b in range(4, 33) if -math.expm1(-(n * n) / 2 ** (8 * b + 1)) < 1e-6), 32)


class PatternDictionary:
    """One-to-one map from hash key to the text it encodes.

    register() checks and inserts: a key seen again with the same text is
    a no-op, a key seen with different text raises CollisionDetected. Not
    thread-safe: the streaming pipeline registers only in its single
    ordered reduce step.
    """

    def __init__(self) -> None:
        self._texts: dict[str, str] = {}

    def register(self, key: str, text: str) -> None:
        known_text = self._texts.setdefault(key, text)
        if known_text != text:
            n = len(self._texts)
            raise CollisionDetected(
                f"key {key} maps to both {known_text!r} and {text!r}; "
                "increase the digest width and re-run "
                f"(distinct keys so far: {n}, width: {len(key) // 2} bytes; smallest "
                f"--digest-bytes with a birthday estimate below 1e-6: {_safe_digest_bytes(n)})"
            )

    def items(self) -> Iterator[tuple[str, str]]:
        """(key, text) pairs in first-registration order."""
        return iter(self._texts.items())

    def __len__(self) -> int:
        return len(self._texts)


@dataclass
class EncodingDictionaries:
    """The two key dictionaries one encoding run maintains."""

    messages: PatternDictionary = field(default_factory=PatternDictionary)
    patterns: PatternDictionary = field(default_factory=PatternDictionary)


def encode_entry(
    deid: DeidentifiedEntry,
    pattern: str,
    dicts: EncodingDictionaries,
    cfg: EncoderConfig = EncoderConfig(),
) -> EncodedEntry:
    """Encode one de-identified entry; timestamp and source pass through unchanged.

    ``pattern`` must be the event pattern of the entry the de-identification
    came from. Both keys are registered so collisions surface immediately.
    """
    hash_key = hash_text(deid.deid_message, cfg)
    category_key = hash_text(pattern, cfg)
    dicts.messages.register(hash_key, deid.deid_message)
    dicts.patterns.register(category_key, pattern)
    return _trusted_encoded_entry(deid.timestamp, deid.source, hash_key, category_key)


def dictionary_bytes(dicts: EncodingDictionaries) -> int:
    """Size of the meanings files for both dictionaries (`key<TAB>text<LF>` lines)."""
    total = 0
    for dictionary in (dicts.messages, dicts.patterns):
        for key, text in dictionary.items():
            total += len(key) + 1 + len(text.encode("utf-8")) + 1
    return total


@dataclass(frozen=True)
class StorageReport:
    """Byte accounting for one run; savings are exact fractions in [0, 1]."""

    entries: int
    raw_message_bytes: int
    encoded_message_bytes: int
    dictionary_bytes: int

    @property
    def saving_excluding_dictionary(self) -> Fraction:
        if self.raw_message_bytes == 0:
            return Fraction(0)
        return 1 - Fraction(self.encoded_message_bytes, self.raw_message_bytes)

    @property
    def saving_including_dictionary(self) -> Fraction:
        if self.raw_message_bytes == 0:
            return Fraction(0)
        used = self.encoded_message_bytes + self.dictionary_bytes
        return 1 - Fraction(used, self.raw_message_bytes)

    def lines(self) -> list[str]:
        def pct(x: Fraction) -> str:
            return f"{float(x) * 100:.2f}%"

        return [
            f"entries: {self.entries}",
            f"raw message bytes: {self.raw_message_bytes}",
            f"encoded message bytes: {self.encoded_message_bytes}",
            f"dictionary bytes: {self.dictionary_bytes}",
            f"saving excluding dictionary: {pct(self.saving_excluding_dictionary)}",
            f"saving including dictionary: {pct(self.saving_including_dictionary)}",
        ]


class StorageTally:
    """Streaming byte accounting for one run; add each entry's byte counts as it is encoded."""

    def __init__(self) -> None:
        self.entries = 0
        self.raw_message_bytes = 0
        self.encoded_message_bytes = 0

    def add(self, raw_message_bytes: int, encoded_message_bytes: int) -> None:
        """Count one entry: its message's UTF-8 bytes, and its encoded message's.

        An encoded message is the two key columns plus the single space
        separating them.
        """
        self.entries += 1
        self.raw_message_bytes += raw_message_bytes
        self.encoded_message_bytes += encoded_message_bytes

    def report(self, dicts: EncodingDictionaries) -> StorageReport:
        return StorageReport(
            entries=self.entries,
            raw_message_bytes=self.raw_message_bytes,
            encoded_message_bytes=self.encoded_message_bytes,
            dictionary_bytes=dictionary_bytes(dicts),
        )
