"""Core domain types and line-level parsing for three-field syslog entries.

Every entry has the layout ``<timestamp> <source> <message>``: an integer
UNIX timestamp, a whitespace-free node identifier, and the free-text message
(everything after the second space, verbatim).

split_line checks a line and returns its three fields as plain values, for
the scan stage, which reads every line and keeps no entry object;
parse_line wraps the same fields in a RawLogEntry. Both run the one source
check and the one line-terminator check that RawLogEntry runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

# One C call per check: \s is exactly str.isspace, and a key is one or
# more pairs of lowercase hex digits.
_SPACE_RE = re.compile(r"\s")
_HEX_KEY_RE = re.compile(r"(?:[0-9a-f]{2})+")


class MalformedLine(ValueError):
    """A line that does not follow the `<timestamp> <source> <message>` layout."""


class TermClass(Enum):
    CONSTANT = "constant"
    VARIABLE_SIGNIFICANT = "variable_significant"
    VARIABLE_INSIGNIFICANT = "variable_insignificant"


@dataclass(frozen=True)
class RawLogEntry:
    """One raw syslog entry. Immutable and safe to share between workers."""

    timestamp: int
    source: str
    message: str

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")
        _check_fields(self.source, self.message)


def _check_fields(source: str, message: str) -> None:
    """Raise MalformedLine for an empty or whitespace-holding source, or a CR or LF in the message."""
    if not source or _SPACE_RE.search(source):
        raise MalformedLine(f"bad source field: {source!r}")
    if "\n" in message or "\r" in message:
        raise MalformedLine("line contains embedded line terminator")


@dataclass(frozen=True)
class Term:
    """A slice of a message: constant text or one variable-term match.

    A message's terms are in order and cover it, so concatenating their
    ``text`` reproduces the message.
    """

    text: str
    klass: TermClass


class SignificantValue(NamedTuple):
    """One significant-term replacement: the value, its symbol, and its slot (see rules.rewrite_matches)."""

    original_value: str
    symbol: str
    slot: int


@dataclass(frozen=True)
class DeidentifiedEntry:
    """Entry after rule substitution; timestamp and source are untouched."""

    timestamp: int
    source: str
    deid_message: str
    significant_values: tuple[SignificantValue, ...] = ()


@dataclass(frozen=True)
class EncodedEntry:
    """Entry after irreversible encoding: message replaced by two hex keys.

    ``hash_key`` identifies the de-identified message, ``category_key`` the
    fully generalized event pattern; both have the same fixed width.
    """

    timestamp: int
    source: str
    hash_key: str
    category_key: str

    def __post_init__(self) -> None:
        for key in (self.hash_key, self.category_key):
            if not _HEX_KEY_RE.fullmatch(key):
                raise ValueError(f"key {key!r} is not lowercase hex of even length")


def _trusted_encoded_entry(
    timestamp: int, source: str, hash_key: str, category_key: str
) -> EncodedEntry:
    """An EncodedEntry built without the key check, for keys ``hash_text`` just made.

    Equal to ``EncodedEntry(timestamp, source, hash_key, category_key)``;
    the public constructor stays the check for every other caller.
    """
    entry = object.__new__(EncodedEntry)
    fields = entry.__dict__
    fields["timestamp"] = timestamp
    fields["source"] = source
    fields["hash_key"] = hash_key
    fields["category_key"] = category_key
    return entry


def split_line(line: str) -> tuple[int, str, str]:
    """Split one flat-file line into (timestamp, source, message).

    The first two fields are split on single spaces; the message is the rest
    of the line verbatim (possibly empty). Raises MalformedLine for missing
    fields, a non-integer timestamp, an empty or whitespace-holding source,
    or a CR or LF in the message, leaving the skip-vs-abort policy to the
    caller. Each fact is checked once: a CR or LF in the first two fields
    fails the timestamp or the source check.
    """
    ts_text, sep, rest = line.partition(" ")
    if not sep:
        raise MalformedLine(f"fewer than 2 fields: {line!r}")
    # One or more ASCII digits: isdigit() alone also takes other scripts' digits.
    if not (ts_text.isascii() and ts_text.isdigit()):
        raise MalformedLine(f"non-integer timestamp: {ts_text!r}")
    source, _, message = rest.partition(" ")
    _check_fields(source, message)
    return int(ts_text), source, message


def parse_line(line: str) -> RawLogEntry:
    """Parse one flat-file line into a RawLogEntry; split_line says what is checked."""
    return RawLogEntry(*split_line(line))


def render_entry(entry: Union[RawLogEntry, EncodedEntry]) -> str:
    """Render an entry back to its single-line flat-file form.

    For raw entries this is the inverse of parse_line:
    ``parse_line(render_entry(e)) == e``.
    """
    if isinstance(entry, EncodedEntry):
        return f"{entry.timestamp} {entry.source} {entry.hash_key} {entry.category_key}"
    return f"{entry.timestamp} {entry.source} {entry.message}"
