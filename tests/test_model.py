from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loganon import EncodedEntry, MalformedLine, RawLogEntry, RuleSet, model, parse_line, render_entry
from loganon._stream import LineIssue, ScannedLine, scanned_stream
from loganon.model import split_line


def test_parse_line_basic():
    entry = parse_line("1517266801 T-1020 (siavash) CMD (/usr/bin/check)")
    assert entry == RawLogEntry(1517266801, "T-1020", "(siavash) CMD (/usr/bin/check)")


def test_parse_line_empty_message():
    assert parse_line("0 n ") == RawLogEntry(0, "n", "")
    assert parse_line("0 n") == RawLogEntry(0, "n", "")


def test_parse_line_message_kept_verbatim():
    line = "5 src   spaced   out\ttabs  "
    entry = parse_line(line)
    assert entry.message == line[len("5 src "):]
    # exactly the byte slice after the second separator
    assert line.split(" ", 2)[2] == entry.message


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
    with pytest.raises(MalformedLine, match=r"^bad source field: 'a b'$"):
        RawLogEntry(0, "a b", "x")
    with pytest.raises(MalformedLine, match=r"^bad source field: 'a\\tb'$"):
        parse_line("5 a\tb c")


def test_parse_line_rejects_embedded_newline():
    with pytest.raises(MalformedLine):
        parse_line("5 n two\nlines")


@pytest.mark.parametrize(
    "line,reason",
    [
        ("5\r n msg", "non-integer timestamp: '5\\r'"),
        ("5 n\r msg", "bad source field: 'n\\r'"),
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
    entry = RawLogEntry(1515625713, "T-6201", "disabling lock debugging due to kernel taint")
    assert render_entry(entry) == "1515625713 T-6201 disabling lock debugging due to kernel taint"


def test_render_encoded_entry_four_columns():
    encoded = EncodedEntry(1515625713, "T-6201", "1808e388", "66dc2742")
    assert render_entry(encoded) == "1515625713 T-6201 1808e388 66dc2742"


def test_entry_validation():
    with pytest.raises(ValueError):
        RawLogEntry(-1, "n", "x")
    with pytest.raises(ValueError):
        RawLogEntry(0, "", "x")
    with pytest.raises(ValueError):
        RawLogEntry(0, "a b", "x")
    with pytest.raises(ValueError):
        RawLogEntry(0, "n", "x\ny")
    with pytest.raises(ValueError):
        EncodedEntry(0, "n", "XYZ", "0abc")


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
    entry = RawLogEntry(ts, source, message)
    assert parse_line(render_entry(entry)) == entry


def test_source_whitespace_check_is_str_isspace_on_every_code_point():
    # RawLogEntry rejects a source holding any character for which
    # str.isspace() is true; its compiled \s must agree on all of Unicode.
    everything = "".join(map(chr, range(0x110000)))
    assert model._SPACE_RE.findall(everything) == [c for c in everything if c.isspace()]
    for c in (c for c in everything if c.isspace()):
        with pytest.raises(MalformedLine):
            RawLogEntry(0, f"a{c}b", "x")


def old_hex_key_check(key: str) -> bool:
    """The key check as written before it became one regex: even-length lowercase hex."""
    return bool(key) and len(key) % 2 == 0 and all(c in "0123456789abcdef" for c in key)


@given(key=st.one_of(st.text(alphabet="0123456789abcdefABCDEF\n g٣", max_size=9), st.text(max_size=9)))
def test_encoded_entry_key_check_matches_old_check(key):
    for hash_key, category_key in ((key, "00"), ("00", key)):
        if old_hex_key_check(key):
            EncodedEntry(0, "n", hash_key, category_key)
        else:
            with pytest.raises(ValueError):
                EncodedEntry(0, "n", hash_key, category_key)


# Pieces of adversarial lines: line terminators, other whitespace, empty
# fields (two spaces in a row), leading zeros and a non-ASCII digit.
LINE_PIECES = st.sampled_from(
    ["0", "007", "15", "٣", " ", "  ", "\t", "\x0b", "\u2028", "\r", "\n", "n", "T-1", "é", "#"]
)


@settings(max_examples=1000)
@given(st.lists(LINE_PIECES, max_size=10).map("".join))
def test_split_line_checks_what_the_entry_checks(line):
    # parse_line adds RawLogEntry's own checks on top of split_line: the
    # two agree only if split_line checks every fact the entry checks.
    try:
        entry = parse_line(line)
    except MalformedLine as exc:
        reason = str(exc)
        with pytest.raises(MalformedLine) as info:
            split_line(line)
        assert str(info.value) == reason
    else:
        reason = None
        assert split_line(line) == (entry.timestamp, entry.source, entry.message)
    [item] = scanned_stream([(7, line.encode("utf-8"))], RuleSet(()))
    if reason is None:
        assert type(item) is ScannedLine
        assert item[:2] == (entry.timestamp, entry.source)
    else:
        assert type(item) is LineIssue
        assert item == (7, reason)
