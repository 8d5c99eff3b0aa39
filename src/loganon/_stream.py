"""Line ingestion and the parallel scan stage shared by the CLI commands.

The per-line work that depends on one line only (UTF-8 validation, field
parsing, sanitizing, rule scanning) runs in worker processes over ordered
batches. Everything order-sensitive (the rewrite, whose individual-mode
symbols are numbered in input order, hashing, dictionaries, output
writing) stays in the single reduce loop that consumes the batches in
input order. Results are therefore byte-identical for any worker count,
and that one reduce process bounds what more workers can gain. The pool
never has more processes than the CPUs this process may run on.

No per-line object is built on the way: model.parse_line checks a line and
returns its three fields as a plain tuple. Only built-in types cross the
pipe: a worker returns each line's fields as a plain tuple, with the tuple
of ``(start, end, rule_index)`` triples that scan_message returns, and the
parent wraps the fields back into a ScannedLine or LineIssue. Named tuples
would cost the parent a Python-level constructor call per object to
unpickle, on the thread that competes with the reduce.

Real logs repeat: most lines carry a message already seen. Each run keeps
an exact memo from sanitized message to its rule matches, so a repeated
message is not scanned again. The memo lives only as long as one
``scanned_stream`` call (one per worker process with ``workers > 1``) and
admits the first ``MEMO_ENTRIES`` distinct messages; later misses are
scanned but not stored, which bounds its memory on corpora of mostly
distinct messages. Matches depend only on the message and the ruleset,
so the memo never changes a result.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
from collections import deque
from contextlib import nullcontext
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .model import MalformedLine, parse_line
from .rules import Match, RuleSet, sanitize_message, scan_message

BATCH_LINES = 4096
# Distinct messages one run memoizes; later ones are computed, not stored.
MEMO_ENTRIES = 4096


class RunMemo(dict):
    """An exact memo for one run that admits only its first MEMO_ENTRIES keys."""

    def admit(self, key, value) -> None:
        if len(self) < MEMO_ENTRIES:
            self[key] = value


class ScannedLine(NamedTuple):
    """One parsed entry: timestamp, source, sanitize_message() form and its rule matches."""

    timestamp: int
    source: str
    sanitized: str
    matches: tuple[Match, ...]


class LineIssue(NamedTuple):
    lineno: int
    reason: str


def iter_raw_lines(paths: Sequence[Union[str, Path]]) -> Iterator[tuple[int, bytes]]:
    """Yield (lineno, line bytes) across all inputs; '-' reads standard input.

    Line numbers are global and 1-based; a final LF and at most one CR
    before it are stripped, nothing else is touched.
    """
    lineno = 0
    for path in paths:
        with nullcontext(sys.stdin.buffer) if str(path) == "-" else open(path, "rb") as stream:
            for raw in stream:
                lineno += 1
                if raw.endswith(b"\n"):
                    raw = raw[:-2] if raw.endswith(b"\r\n") else raw[:-1]
                yield lineno, raw


def _scan_one(
    lineno: int, raw: bytes, ruleset: RuleSet, memo: Optional[RunMemo]
) -> tuple:
    """The fields of one line's ScannedLine (four) or LineIssue (two), as a plain tuple.

    Only built-in types, so a batch pickles without any class lookup.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return lineno, "not valid UTF-8"
    try:
        timestamp, source, message = parse_line(text)
    except MalformedLine as exc:
        return lineno, str(exc)
    sanitized = sanitize_message(message)
    matches = memo.get(sanitized) if memo is not None else None
    if matches is None:
        matches = scan_message(sanitized, ruleset)
        if memo is not None:
            memo.admit(sanitized, matches)
    return timestamp, source, sanitized, matches


def _new_memo(ruleset: RuleSet) -> Optional[RunMemo]:
    """A fresh scan memo, or None when there are no rules to save work on."""
    return RunMemo() if ruleset.rules else None


_worker_ruleset: Optional[RuleSet] = None
_worker_memo: Optional[RunMemo] = None


def _init_worker(ruleset: RuleSet) -> None:
    global _worker_ruleset, _worker_memo
    # Ctrl-C and a group-wide SIGTERM reach the workers too; only the parent acts on them.
    # A worker killed mid-batch would lose it, and the pool's join() would wait for it forever.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _worker_ruleset = ruleset
    _worker_memo = _new_memo(ruleset)


def _scan_batch(batch: list[tuple[int, bytes]]) -> list[tuple]:
    assert _worker_ruleset is not None
    return [_scan_one(lineno, raw, _worker_ruleset, _worker_memo) for lineno, raw in batch]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        return os.cpu_count() or 1


def scanned_stream(
    lines: Iterable[tuple[int, bytes]],
    ruleset: RuleSet,
    workers: int = 1,
) -> Iterator[Union[ScannedLine, LineIssue]]:
    """Scan lines against the ruleset, preserving input order.

    ``workers > 1`` fans batches out to a process pool. This generator
    reads the input itself, on the calling thread, and keeps at most
    ``2 * workers`` batches in flight; it yields their results in the
    order it submitted them, so the stream is identical to the sequential
    one. The pool has at most _usable_cpus() processes, and a pool of one
    is the sequential path. Workers return plain tuples (see _scan_one),
    which this generator wraps back into ScannedLine and LineIssue. When
    the stream ends or is closed early (an error, Ctrl-C, SIGTERM), nothing
    more is read or submitted, and the workers finish the batches already
    in flight before the pool is joined. No pool thread reads the input,
    so a signal that arrives while the read waits on an open pipe stops
    the run at once.
    """
    workers = min(workers, _usable_cpus())
    if workers <= 1:
        memo = _new_memo(ruleset)
        for lineno, raw in lines:
            fields = _scan_one(lineno, raw, ruleset, memo)
            # What NamedTuple._make does, without its Python-level call per line.
            yield tuple.__new__(ScannedLine if len(fields) == 4 else LineIssue, fields)
        return
    ctx = multiprocessing.get_context("fork")
    lines = iter(lines)
    in_flight: deque = deque()
    with ctx.Pool(workers, initializer=_init_worker, initargs=(ruleset,)) as pool:
        try:
            while True:
                while len(in_flight) < 2 * workers and (batch := list(islice(lines, BATCH_LINES))):
                    in_flight.append(pool.apply_async(_scan_batch, (batch,)))
                if not in_flight:
                    break
                for fields in in_flight.popleft().get():
                    yield tuple.__new__(ScannedLine if len(fields) == 4 else LineIssue, fields)
        finally:
            pool.close()
            pool.join()
