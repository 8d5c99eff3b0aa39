"""Line numbers and skipped-line counts against an oracle that shares no code with loganon.

The oracle splits each input file on LF, drops a UTF-8 byte-order mark
that opens a file and one CR before each LF, and classifies each line
with the test-side parser ``reference_parse``. `patterns` must then name
the first bad line by its number across all inputs under ``--strict``,
and count every bad line without it, with one worker or a real pool of
two over small batches.
"""

from __future__ import annotations

import codecs
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import loganon
from conftest import reference_parse
from loganon.cli import main

# Message pieces: text the built-in rules match, '#', a lone CR, a mark
# inside a line, and bytes that are not UTF-8 (one invalid, one truncated).
PIECES = [b"(root) CMD (/bin/job)", b"10.0.0.1", b"x", b" ", b"#", b"\t", b"\r", codecs.BOM_UTF8,
          b"\xff", b"\xe2\x82", b"caf\xc3\xa9", b"7"]
pieces = st.lists(st.sampled_from(PIECES), max_size=5).map(b"".join)
lines = st.one_of(
    st.builds(lambda ts, src, msg: b"%d %s %s" % (ts, src, msg),
              st.integers(0, 99), st.sampled_from([b"n1", b"T-1"]), pieces),
    pieces,
)
# What follows a line: LF, CRLF, a lone CR, or nothing, which joins it to the next.
ENDS = [b"\n", b"\r\n", b"\r", b""]
files = st.builds(
    lambda bom, body: (codecs.BOM_UTF8 if bom else b"") + b"".join(line + end for line, end in body),
    st.booleans(),
    st.lists(st.tuples(lines, st.sampled_from(ENDS)), max_size=12),
)


def reasons(data: list[bytes]) -> list[str | None]:
    """Each input line's reason to be skipped, or None for a good line, in input order."""
    found: list[str | None] = []
    for content in data:
        if content.startswith(codecs.BOM_UTF8):
            content = content[len(codecs.BOM_UTF8):]
        *ended, last = content.split(b"\n")
        for raw in [line[:-1] if line.endswith(b"\r") else line for line in ended] + ([last] if last else []):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                found.append("not valid UTF-8")
                continue
            found.append(reference_parse(text)[1])
    return found


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def small_pool(monkeypatch) -> None:
    """Batches of three lines, and a real pool of two even where this process may use one CPU."""
    monkeypatch.setattr(loganon._stream, "BATCH_LINES", 3)
    monkeypatch.setattr(loganon._stream, "_usable_cpus", lambda: 2)


# No explain phase: on a failure it re-runs the CLI for variations of every part of the
# example; a failing run took over 2 minutes and 460 MB with it, 15 s without (2-core Xeon).
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture],
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(st.lists(files, min_size=1, max_size=3))
def test_line_numbers_and_skipped_lines_match_a_split_oracle(small_pool, data):
    expected = reasons(data)
    bad = [(number, reason) for number, reason in enumerate(expected, 1) if reason is not None]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = []
        for i, content in enumerate(data):
            inputs.append(str(Path(tmp) / f"in{i}.log"))
            Path(inputs[-1]).write_bytes(content)
        for workers in ("1", "2"):
            out = Path(tmp) / f"strict{workers}"
            code, stdout, err = run(["patterns", *inputs, "--strict", "--workers", workers, "--out", str(out)])
            if bad:
                number, reason = bad[0]
                assert (code, stdout, err) == (4, "", f"error: line {number}: {reason}\n")
                assert list(out.iterdir()) == []
            else:
                assert (code, err) == (0, "")
            out = Path(tmp) / f"lenient{workers}"
            code, stdout, err = run(["patterns", *inputs, "--workers", workers, "--out", str(out)])
            assert (code, err) == (0, "")
            assert [line for line in stdout.splitlines() if line.startswith("skipped lines: ")] == (
                [f"skipped lines: {len(bad)}"] if bad else []
            )
            entries = (out / "coverage.csv").read_text().splitlines()[0]
            assert entries == f"#Raw log entries,{len(expected) - len(bad)}"
