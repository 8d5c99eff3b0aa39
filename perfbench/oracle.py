"""Expected `loganon` outputs, computed without importing loganon.

The oracle knows the two corpus styles `loganon gen` writes and derives
every output from that knowledge plus its own SHAKE-128:

* plain lines match no rule, so both keys are the digest of the message;
* cmd lines `(userNNN) CMD (/path) w1 w2 w3` de-identify to
  `(#USERk#) CMD (#PATH#) w1 w2 w3`, k numbering users by first
  appearance, and their event pattern is `(#USER_#) CMD (#PATH#) w1 w2 w3`;
* global-mode usefulness of a day is sum_p f_p/N * 1/N_users(p);
* top-K coverage is the share of the K largest pattern counts;
* compare grids mark the (day, minute) cells where a node logged.

A corpus line of any other shape is an error, so the oracle never has to
guess what the rules would do with it.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

SECONDS_PER_DAY = 86400

_PLAIN_RE = re.compile(r"svc\d{5} worker heartbeat state nominal [a-z]+(?: [a-z]+)* cycle complete")
_CMD_RE = re.compile(r"\((user\d{3})\) CMD \(/srv/pool/svc\d{5}/run\.sh\) ([a-z]+ [a-z]+ [a-z]+)")


class CorpusError(ValueError):
    """A corpus line the oracle cannot predict."""


@dataclass(frozen=True)
class Line:
    timestamp: int
    source: str
    message: str
    user: str  # empty for plain lines
    words: str  # constant tail of a cmd line; empty for plain lines


@dataclass
class Corpus:
    style: str
    lines: list[Line]


@dataclass
class Expected:
    """Exact output files of one command, and lines its stdout must contain in order."""

    files: dict[str, bytes]
    stdout_lines: list[str] = field(default_factory=list)


def parse_corpus(text: str, style: str) -> Corpus:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        ts, source, message = raw.split(" ", 2)
        user = words = ""
        if style == "plain":
            ok = _PLAIN_RE.fullmatch(message)
        else:
            ok = _CMD_RE.fullmatch(message)
            if ok:
                user, words = ok.groups()
        if not ok or not ts.isdigit():
            raise CorpusError(f"line {lineno} is not a {style} line: {raw!r}")
        lines.append(Line(int(ts), source, message, user, words))
    return Corpus(style, lines)


def key(text: str, width: int) -> str:
    return hashlib.shake_128(text.encode("utf-8")).hexdigest(width)


def _pattern(line: Line) -> str:
    return f"(#USER_#) CMD (#PATH#) {line.words}" if line.user else line.message


def _rows(rows: Iterable[str]) -> bytes:
    return "".join(row + "\n" for row in rows).encode("utf-8")


def expect_anonymize(corpus: Corpus, width: int) -> Expected:
    """`anonymize`: plain in global mode, cmd in individual mode with both dictionaries."""
    users: dict[str, int] = {}
    meanings: dict[str, str] = {}
    patterns = set()
    encoded = []
    for line in corpus.lines:
        pattern = _pattern(line)
        if line.user:
            k = users.setdefault(line.user, len(users) + 1)
            deid = f"(#USER{k}#) CMD (#PATH#) {line.words}"
        else:
            deid = line.message
        msg_key = key(deid, width)
        meanings.setdefault(msg_key, deid)
        patterns.add(pattern)
        encoded.append(f"{line.timestamp} {line.source} {msg_key} {key(pattern, width)}")
    files = {"encoded.log": _rows(encoded)}
    if corpus.style == "cmd":
        files["dictionary.tsv"] = _rows(f"#USER{k}#\t{user}" for user, k in users.items())
        files["meanings.tsv"] = _rows(f"{k}\t{text}" for k, text in meanings.items())
    stdout = [f"entries: {len(corpus.lines)}", "skipped lines: 0", f"event patterns: {len(patterns)}"]
    return Expected(files, stdout)


def _dec4(value: Fraction) -> str:
    # Four places, ties to even, as the usefulness report renders them.
    whole, frac = divmod(round(value * 10000), 10000)
    return f"{whole}.{frac:04d}"


def expect_usefulness(corpus: Corpus) -> Expected:
    """`usefulness --mode global --per-day` on a cmd corpus."""
    by_day: dict[int, list[Line]] = {}
    for line in corpus.lines:
        by_day.setdefault(line.timestamp // SECONDS_PER_DAY, []).append(line)
    files = {}
    stdout = []
    for day in sorted(by_day):
        lines = by_day[day]
        n = len(lines)
        freq = Counter(_pattern(line) for line in lines)
        users: dict[str, set[str]] = {}
        for line in lines:
            users.setdefault(_pattern(line), set()).add(line.user)
        rows = ["category,pattern,f_p,D_p,ratio,contribution"]
        total = Fraction(0)
        ordered = sorted(freq, key=lambda p: (-freq[p], key(p, 4)))
        for p in ordered:
            share = Fraction(freq[p], n)
            ratio = Fraction(1, len(users[p]))
            total += share * ratio
            rows.append(f"{key(p, 4)},{p},{freq[p]},{_dec4(share)},{_dec4(ratio)},{_dec4(share * ratio)}")
        rows.append(f"TOTAL,,{n},1.0000,,{_dec4(total)}")
        files[f"usefulness_d{day}.csv"] = _rows(rows)
        stdout.append(f"--- day {day} ---")
        stdout.append(
            f"usefulness (global): {_dec4(total)} "
            f"(exact {total.numerator}/{total.denominator}) over {n} entries"
        )
    return Expected(files, stdout)


def expect_patterns(corpus: Corpus, ks: Sequence[int]) -> Expected:
    """`patterns --top ...`: coverage of the K most frequent event patterns."""
    counts = sorted(Counter(_pattern(line) for line in corpus.lines).values(), reverse=True)
    n = len(corpus.lines)
    rows = [f"#Raw log entries,{n}", f"#Event patterns,{len(counts)}", "K,coverage_percent"]
    for k in ks:
        rows.append(f"{k},{float(Fraction(sum(counts[:k]), n)) * 100:.2f}")
    return Expected({"coverage.csv": _rows(rows)}, rows)


def _pgm(cells: set[tuple[int, int]], first_day: int, days: int) -> bytes:
    rows = ["P2", f"1440 {days}", "255"]
    for day in range(first_day, first_day + days):
        values = ["0" if (day, minute) in cells else "255" for minute in range(1440)]
        rows.extend(" ".join(values[i : i + 17]) for i in range(0, 1440, 17))
    return _rows(rows)


def expect_compare(corpus: Corpus, node_a: str, node_b: str) -> Expected:
    """`compare A B --window 0:1440 --format pgm` on the raw corpus."""
    cells: dict[str, set[tuple[int, int]]] = {node_a: set(), node_b: set()}
    for line in corpus.lines:
        if line.source in cells:
            day, second = divmod(line.timestamp, SECONDS_PER_DAY)
            cells[line.source].add((day, second // 60))
    days = [day for occupied in cells.values() for day, _ in occupied]
    first, last = (min(days), max(days)) if days else (0, 0)
    span = last - first + 1
    a, b = cells[node_a], cells[node_b]
    files = {
        f"{node_a}_occurrence.pgm": _pgm(a, first, span),
        f"{node_b}_occurrence.pgm": _pgm(b, first, span),
        f"{node_a}-{node_b}_similarity.pgm": _pgm(a & b, first, span),
        f"{node_a}-{node_b}_difference.pgm": _pgm(a ^ b, first, span),
    }
    return Expected(files)
