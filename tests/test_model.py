from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loganon import MalformedLine, RuleSet, model, parse_line, render_entry
from loganon._stream import LineIssue, ScannedLine, scanned_stream


def test_parse_line_basic():
    entry = parse_line("1517266801 T-1020 (siavash) CMD (/usr/bin/check)")
    assert entry == (1517266801, "T-1020", "(siavash) CMD (/usr/bin/check)")


def test_parse_line_empty_message():
    assert parse_line("0 n ") == (0, "n", "")
    assert parse_line("0 n") == (0, "n", "")


def test_parse_line_message_kept_verbatim():
    line = "5 src   spaced   out\ttabs  "
    _, _, message = parse_line(line)
    assert message == line[len("5 src "):]
    # exactly the byte slice after the second separator
    assert line.split(" ", 2)[2] == message


@pytest.mark.parametrize(
    "line",
    [
        "abc T-1 msg",
        "",
        "12",
        "-5 n msg",
        "+5 n msg",
        "5_0 n msg",
        "٥ n msg",  # non-ASCII digit
        "5  msg",  # empty source
        "5 a\tb c",  # whitespace inside source
    ],
)
def test_parse_line_malformed(line):
    with pytest.raises(MalformedLine):
        parse_line(line)


def test_bad_source_reason_comes_from_the_entry_check():
    with pytest.raises(MalformedLine, match=r"^bad source field$"):
        parse_line("5 a\tb c")


def test_parse_line_rejects_embedded_newline():
    with pytest.raises(MalformedLine):
        parse_line("5 n two\nlines")


@pytest.mark.parametrize(
    "line,reason",
    [
        ("5\r n msg", "non-integer timestamp"),
        ("5 n\r msg", "bad source field"),
        ("5 n two\nlines", "line contains embedded line terminator"),
        ("5 n msg\r", "line contains embedded line terminator"),
    ],
    ids=["timestamp", "source", "message-lf", "message-cr"],
)
def test_line_terminator_fails_the_check_of_its_field(line, reason):
    # parse_line has no whole-line check: each field's own check catches it.
    with pytest.raises(MalformedLine) as info:
        parse_line(line)
    assert str(info.value) == reason


def test_render_raw_entry():
    entry = (1515625713, "T-6201", "disabling lock debugging due to kernel taint")
    assert render_entry(entry) == "1515625713 T-6201 disabling lock debugging due to kernel taint"


source_strategy = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Z", "C")),
    min_size=1,
    max_size=12,
).filter(lambda s: not any(c.isspace() for c in s))

message_strategy = st.text(max_size=80).filter(lambda s: "\n" not in s and "\r" not in s)


@given(
    ts=st.integers(min_value=0, max_value=2**48),
    source=source_strategy,
    message=message_strategy,
)
def test_parse_render_round_trip(ts, source, message):
    entry = (ts, source, message)
    assert parse_line(render_entry(entry)) == entry


def test_source_whitespace_check_is_str_isspace_on_every_code_point():
    # parse_line rejects a source holding any character for which
    # str.isspace() is true; its compiled \s must agree on all of Unicode.
    # A space is the field separator, so it can never sit inside a source.
    everything = "".join(map(chr, range(0x110000)))
    assert model._SPACE_RE.findall(everything) == [c for c in everything if c.isspace()]
    for c in (c for c in everything if c.isspace() and c != " "):
        with pytest.raises(MalformedLine, match=r"^bad source field$"):
            parse_line(f"0 a{c}b x")


# Pieces of adversarial lines: line terminators, other whitespace, empty
# fields (two spaces in a row), leading zeros and a non-ASCII digit.
PIECES = ["0", "007", "15", "٣", " ", "  ", "\t", "\x0b", "\u2028", "\r", "\n", "n", "T-1", "é", "#"]
LINE_PIECES = st.sampled_from(PIECES)


def _field(pieces: list[str], max_size: int):
    return st.lists(st.sampled_from(pieces), max_size=max_size).map("".join)


# Free-form lines, and lines shaped `<timestamp> <source> <message>` whose
# timestamp is made of digit pieces, so that many reach the message check.
LINES = st.one_of(
    st.lists(LINE_PIECES, max_size=10).map("".join),
    st.tuples(_field([p for p in PIECES if p.isdigit()], 2), _field(PIECES, 2), _field(PIECES, 4)).map(
        " ".join
    ),
)


def reference_parse(line: str) -> tuple:
    """``(fields, None)`` for a good line, ``(None, reason)`` for a bad one.

    Built only on str.split(" ", 2) and str.isspace, with the reason texts
    that MalformedLine carries.
    """
    fields = line.split(" ", 2)
    if len(fields) < 2:
        return None, "fewer than 2 fields"
    ts_text, source = fields[0], fields[1]
    message = fields[2] if len(fields) == 3 else ""
    if not ts_text or not set(ts_text) <= set("0123456789"):
        return None, "non-integer timestamp"
    if not source or any(c.isspace() for c in source):
        return None, "bad source field"
    if "\n" in message or "\r" in message:
        return None, "line contains embedded line terminator"
    return (int(ts_text), source, message), None


@settings(max_examples=1000)
@given(LINES)
def test_parse_line_agrees_with_a_split_reference(line):
    fields, reason = reference_parse(line)
    if fields is None:
        with pytest.raises(MalformedLine) as info:
            parse_line(line)
        assert str(info.value) == reason
    else:
        assert parse_line(line) == fields
    [item] = scanned_stream([(7, line.encode("utf-8"))], RuleSet(()))
    if fields is None:
        assert item == LineIssue(7, reason)
        assert type(item) is LineIssue
    else:
        assert type(item) is ScannedLine
        assert item[:2] == fields[:2]
