"""Irreversible fixed-width encoding of de-identified messages.

Messages are hashed with the SHAKE-128 extendable-output function and
truncated to ``digest_bytes`` bytes, set once per run on the dictionaries
that hold the keys; the same function applied to the event pattern yields
the category key. encode_entry returns the two keys as plain strings of
lowercase hex; an encoded line is ``<timestamp> <source> <hash_key>
<category_key>``. Two key -> text dicts detect truncation collisions
instead of silently merging distinct messages; the pattern one, a
PatternKeys, hashes each pattern once per run and keys the usefulness
reports too. A storage tally quantifies how much smaller the encoded
corpus is.

The widths 1-3 work here, so collision handling can be exercised
deliberately (``EncodingDictionaries(1)``); the command-line front end
accepts only 4-32.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction


class CollisionDetected(RuntimeError):
    """Two distinct texts truncated to the same key; raise the digest width and re-run."""


def hash_text(text: str, digest_bytes: int = 4) -> str:
    """SHAKE-128 over the exact UTF-8 bytes of ``text``, truncated, lowercase hex.

    No normalization and no trailing newline: equal strings give equal keys
    on every platform, and nothing else enters the digest.
    """
    return hashlib.shake_128(text.encode("utf-8")).hexdigest(digest_bytes)


def _safe_digest_bytes(n: int) -> int:
    """The smallest --digest-bytes (4-32) at which n keys collide with probability below 1e-6.

    Uses the birthday estimate 1 - exp(-n^2 / 2^(8b+1)) for b bytes.
    """
    return next((b for b in range(4, 33) if -math.expm1(-(n * n) / 2 ** (8 * b + 1)) < 1e-6), 32)


def register(texts: dict[str, str], key: str, text: str) -> None:
    """Record that ``key`` encodes ``text`` in the one-to-one map ``texts``.

    A key seen again with the same text is a no-op; a key seen with
    different text raises CollisionDetected. Not thread-safe: the streaming
    pipeline registers only in its single ordered reduce step.
    """
    known_text = texts.setdefault(key, text)
    if known_text != text:
        n = len(texts)
        raise CollisionDetected(
            f"key {key} maps to both {known_text!r} and {text!r}; "
            "increase the digest width and re-run "
            f"(distinct keys so far: {n}, width: {len(key) // 2} bytes; smallest "
            f"--digest-bytes with a birthday estimate below 1e-6: {_safe_digest_bytes(n)})"
        )


class PatternKeys(dict):
    """One run's category keys at one width: a key -> pattern dict, in first-registration order.

    ``by_pattern`` maps each pattern to its key, so key() hashes a pattern
    once per run; the first registration goes through register, so two
    patterns that share a key raise CollisionDetected.
    """

    def __init__(self, digest_bytes: int = 4) -> None:
        super().__init__()
        self.digest_bytes = digest_bytes
        self.by_pattern: dict[str, str] = {}

    def key(self, pattern: str) -> str:
        category_key = self.by_pattern.get(pattern)
        if category_key is None:
            category_key = hash_text(pattern, self.digest_bytes)
            register(self, category_key, pattern)
            self.by_pattern[pattern] = category_key
        return category_key


class EncodingDictionaries:
    """The two key -> text dicts one encoding run maintains, in first-registration order.

    ``patterns`` owns the run's key width; encode_entry hashes both keys at it.
    """

    def __init__(self, digest_bytes: int = 4) -> None:
        self.messages: dict[str, str] = {}
        self.patterns = PatternKeys(digest_bytes)


def encode_entry(deid_message: str, pattern: str, dicts: EncodingDictionaries) -> tuple[str, str]:
    """Hash a de-identified message and its event pattern; return (hash_key, category_key).

    ``pattern`` must be the event pattern of the message the de-identification
    came from. Both keys are registered, at the width of ``dicts``, so
    collisions surface immediately.
    """
    hash_key = hash_text(deid_message, dicts.patterns.digest_bytes)
    register(dicts.messages, hash_key, deid_message)
    return hash_key, dicts.patterns.key(pattern)


def dictionary_bytes(dicts: EncodingDictionaries) -> int:
    """Size of the meanings files for both dictionaries (`key<TAB>text<LF>` lines)."""
    total = 0
    for texts in (dicts.messages, dicts.patterns):
        for key, text in texts.items():
            total += len(key) + 1 + len(text.encode("utf-8")) + 1
    return total


class StorageTally:
    """Streaming byte accounting for one run's dictionaries; add each entry as it is encoded.

    An encoded message is the two key columns, 2 * digest_bytes hex digits
    each at the dictionaries' width, plus the single space separating them:
    4 * digest_bytes + 1 bytes.
    """

    def __init__(self, dicts: EncodingDictionaries) -> None:
        self.dicts = dicts
        self.entries = 0
        self.raw_message_bytes = 0
        self._encoded_bytes_per_entry = 4 * dicts.patterns.digest_bytes + 1

    @property
    def encoded_message_bytes(self) -> int:
        return self.entries * self._encoded_bytes_per_entry

    def add(self, raw_message_bytes: int) -> None:
        """Count one entry, whose message has ``raw_message_bytes`` UTF-8 bytes."""
        self.entries += 1
        self.raw_message_bytes += raw_message_bytes

    def saving(self, extra_bytes: int = 0) -> Fraction:
        """1 - (encoded message bytes + extra_bytes) / raw message bytes, exact; 0 with no raw bytes.

        With ``extra_bytes`` the dictionary_bytes() of the run, this is the
        saving including the dictionaries.
        """
        if self.raw_message_bytes == 0:
            return Fraction(0)
        return 1 - Fraction(self.encoded_message_bytes + extra_bytes, self.raw_message_bytes)

    def report(self) -> list[str]:
        """The storage report's lines: the byte counts and both savings as percentages."""
        dict_bytes = dictionary_bytes(self.dicts)
        return [
            f"entries: {self.entries}",
            f"raw message bytes: {self.raw_message_bytes}",
            f"encoded message bytes: {self.encoded_message_bytes}",
            f"dictionary bytes: {dict_bytes}",
            f"saving excluding dictionary: {float(self.saving()) * 100:.2f}%",
            f"saving including dictionary: {float(self.saving(dict_bytes)) * 100:.2f}%",
        ]
