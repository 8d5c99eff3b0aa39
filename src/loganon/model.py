"""Line-level parsing of raw syslog entries, and the term classes of a message.

Every entry has the layout ``<timestamp> <source> <message>``: an integer
UNIX timestamp, a whitespace-free node identifier, and the free-text message
(everything after the second space, verbatim).

parse_line checks a line and returns its three fields as a plain
``(timestamp, source, message)`` tuple; render_entry is its inverse. No
step builds an entry object: de-identifying and encoding a message give
plain tuples too (see rules.process_entry and encoder.encode_entry), and
the timestamp and source pass through both steps untouched.
"""

from __future__ import annotations

import re
from enum import Enum

# One C call per check: \s is exactly str.isspace.
_SPACE_RE = re.compile(r"\s")


class MalformedLine(ValueError):
    """A line that does not follow the `<timestamp> <source> <message>` layout."""


class TermClass(Enum):
    CONSTANT = "constant"
    VARIABLE_SIGNIFICANT = "variable_significant"
    VARIABLE_INSIGNIFICANT = "variable_insignificant"


def parse_line(line: str) -> tuple[int, str, str]:
    """Split one flat-file line into (timestamp, source, message).

    The first two fields are split on single spaces; the message is the rest
    of the line verbatim (possibly empty). Raises MalformedLine for missing
    fields, a non-integer timestamp, an empty or whitespace-holding source,
    or a CR or LF in the message, leaving the skip-vs-abort policy to the
    caller. Each fact is checked once: a CR or LF in the first two fields
    fails the timestamp or the source check. A reason names the failed
    check and holds no text of the line, so an error printed from it shows
    no input value.
    """
    ts_text, sep, rest = line.partition(" ")
    if not sep:
        raise MalformedLine("fewer than 2 fields")
    # One or more ASCII digits: isdigit() alone also takes other scripts' digits.
    if not (ts_text.isascii() and ts_text.isdigit()):
        raise MalformedLine("non-integer timestamp")
    source, _, message = rest.partition(" ")
    if not source or _SPACE_RE.search(source):
        raise MalformedLine("bad source field")
    if "\n" in message or "\r" in message:
        raise MalformedLine("line contains embedded line terminator")
    return int(ts_text), source, message


def render_entry(entry: tuple[int, str, str]) -> str:
    """Render (timestamp, source, message) as its flat-file line, the inverse of parse_line.

    ``parse_line(render_entry(e)) == e`` for every e that parse_line returns.
    """
    timestamp, source, message = entry
    return f"{timestamp} {source} {message}"
