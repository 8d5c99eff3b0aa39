"""Line ingestion and the parallel scan stage shared by the CLI commands.

The per-line work that depends on one line only (UTF-8 validation, field
parsing, sanitizing, rule scanning) runs in worker processes over ordered
batches. Everything order-sensitive (the rewrite, whose individual-mode
symbols are numbered in input order, hashing, dictionaries, output
writing) stays in the single reduce loop that consumes the batches in
input order. Results are therefore byte-identical for any worker count,
and that one reduce process bounds what more workers can gain. The pool
never has more processes than the CPUs this process may run on.

Both paths, the sequential one and each worker's, take the input
BATCH_LINES lines as read at a time through _scan_lines: it decodes each
line, strips its line end, parses and sanitizes it and looks its message
up in the memo, then hands the batch's distinct misses to
rules.scan_batch, which scans them together and returns the matches a
per-message scan finds.

No per-line object is built on the way: model.parse_line checks a line and
returns its three fields as a plain tuple. Only built-in types cross the
pipe: a worker returns each good line's fields as a plain tuple, with the
tuple of ``(start, end, rule_index)`` triples that the scan returns, and
each bad line's reason string; the parent wraps the fields back into a
ScannedLine. Named tuples would cost the parent a Python-level
constructor call per object to unpickle, on the thread that competes
with the reduce.

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

import codecs
import os
import pickle
import signal
import sys
import traceback
from collections import deque
from contextlib import nullcontext
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .model import MalformedLine, parse_line
from .rules import Match, RuleSet, sanitize_message, scan_batch, scan_message

BATCH_LINES = 4096
# The signals that stop a run (see cli._interrupt); held back while a worker is forked.
_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}
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


def iter_raw_lines(paths: Sequence[Union[str, Path]]) -> Iterator[bytes]:
    """Yield the lines of all inputs in order, as read; '-' reads standard input.

    A UTF-8 byte-order mark that opens an input is dropped; nothing else is
    touched, so each line keeps its line end.
    """
    for path in paths:
        with nullcontext(sys.stdin.buffer) if str(path) == "-" else open(path, "rb") as stream:
            if first := stream.readline().removeprefix(codecs.BOM_UTF8):
                yield first
            yield from stream


def _scan_lines(batch: list[bytes], ruleset: RuleSet, memo: Optional[RunMemo]) -> list[Union[tuple, str]]:
    """For each line, the four fields of its ScannedLine as a plain tuple, or why it is bad.

    A final LF and at most one CR before it are stripped after decoding.

    Only built-in types, so a batch pickles without any class lookup.
    parse_line, sanitize_message, scan_message (each line's scan when there
    are no rules) and scan_batch are looked up as this module's globals at
    each call, so a rebinding of them holds.
    """
    results: list[Union[tuple, str]] = []
    misses: dict[str, None] = {}  # the batch's distinct memo misses, in first-seen order
    pending: list[int] = []  # the indices in results of the lines whose message missed
    for raw in batch:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            results.append("not valid UTF-8")
            continue
        if text.endswith("\n"):
            text = text[:-2] if text.endswith("\r\n") else text[:-1]
        try:
            timestamp, source, message = parse_line(text)
        except MalformedLine as exc:
            results.append(str(exc))
            continue
        sanitized = sanitize_message(message)
        # No rules (compare, an empty rule file): each line is its own miss, with nothing
        # to share. This branch pays: 40k cmd lines take 45 ms here, 67 ms through the
        # memo and scan_batch, 62 ms if scan_batch returns at once for no rules (2-core
        # Xeon). compare keeps this stage: perfbench/traced.py counts lines from it.
        if memo is None:
            results.append((timestamp, source, sanitized, scan_message(sanitized, ruleset)))
            continue
        matches = memo.get(sanitized)
        if matches is None:
            misses[sanitized] = None
            pending.append(len(results))
        results.append((timestamp, source, sanitized, matches))
    if pending:
        found = dict(zip(misses, scan_batch(list(misses), ruleset)))
        room = MEMO_ENTRIES - len(memo)
        if room > 0:
            memo.update(islice(found.items(), room))
        for i in pending:
            timestamp, source, sanitized, _ = results[i]
            results[i] = (timestamp, source, sanitized, found[sanitized])
    return results


def _new_memo(ruleset: RuleSet) -> Optional[RunMemo]:
    """A fresh scan memo, or None when there are no rules to save work on."""
    return RunMemo() if ruleset.rules else None


_worker_ruleset: Optional[RuleSet] = None
_worker_memo: Optional[RunMemo] = None


class WorkerLost(RuntimeError):
    """A scan worker process ended before it returned the batch it was sent."""


def _init_worker(ruleset: RuleSet) -> None:
    global _worker_ruleset, _worker_memo
    # Ctrl-C and a group-wide SIGTERM reach the workers too; only the parent acts on them.
    # A worker that died of them would turn the parent's clean exit into a WorkerLost.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _worker_ruleset = ruleset
    _worker_memo = _new_memo(ruleset)


def _scan_batch(batch: list[bytes]) -> list[Union[tuple, str]]:
    """A worker's entry: _scan_lines with the ruleset and memo of this worker."""
    assert _worker_ruleset is not None
    return _scan_lines(batch, _worker_ruleset, _worker_memo)


def _send(fd: int, obj) -> None:
    """Write ``obj`` to a pipe as its pickle's length (8 bytes, little-endian), then the pickle."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def _send_batch(worker: tuple[int, int, BinaryIO], batch: list[bytes]) -> None:
    """Send ``batch`` to a (pid, task fd, result reader) worker; a closed task pipe means it died."""
    try:
        _send(worker[1], batch)
    except BrokenPipeError:
        raise WorkerLost(f"scan worker {worker[0]} ended before it was sent its batch") from None


def _receive(stream: BinaryIO):
    """The next object _send wrote to ``stream``, or None if the stream ends before all of it."""
    header = stream.read(8)
    if len(header) == 8:
        size = int.from_bytes(header, "little")
        data = stream.read(size)
        if len(data) == size:
            return pickle.loads(data)
    return None


def _serve(task_fd: int, result_fd: int) -> None:
    """A worker's loop: scan each batch read from task_fd and send its results, until task_fd ends."""
    with open(task_fd, "rb") as tasks:
        while (batch := _receive(tasks)) is not None:
            # _scan_batch is looked up at each call, so a rebinding of _stream._scan_batch holds.
            _send(result_fd, _scan_batch(batch))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, else os.cpu_count()."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # no affinity call on this platform
        return os.cpu_count() or 1


def scanned_stream(
    lines: Iterable[bytes],
    ruleset: RuleSet,
    workers: int = 1,
) -> Iterator[Union[ScannedLine, str]]:
    """Scan lines as read against the ruleset, one item per line in input order.

    A good line yields its ScannedLine, a bad one the reason it is bad, so
    the caller numbers the lines by counting the items. Lines reach the
    scan BATCH_LINES at a time (see _scan_lines), on both paths, so an item
    is yielded only once its whole batch is read: with standard input, once
    BATCH_LINES more lines or the end have arrived.

    ``workers > 1`` forks that many worker processes, at most
    _usable_cpus(). A pool of one, or a ruleset with no rules, which leaves
    a worker no scan to do, takes the sequential path. Each worker has
    a task pipe and a result pipe, which carry length-prefixed pickles.
    This generator reads the input itself, on the calling thread, and
    sends batch k to worker k mod n; it reads the results back in the same
    order, so the stream is identical to the sequential one. A worker holds
    at most one batch, so the parent never blocks sending to a worker that
    is itself blocked writing a result. Workers return plain tuples and
    reasons (see _scan_lines); this generator wraps the tuples back into
    ScannedLine.

    A worker that ends without returning its batch (killed, or its scan
    raised) raises WorkerLost here. When the stream ends or is closed early
    (an error, Ctrl-C, SIGTERM), nothing more is read or sent; the pipes are
    closed, so each worker exits once its current batch is done, and every
    worker is waited for. A signal that arrives while the read waits on an
    open pipe stops the run at once.
    """
    workers = min(workers, _usable_cpus())
    lines = iter(lines)
    if workers <= 1 or not ruleset.rules:
        memo = _new_memo(ruleset)
        while batch := list(islice(lines, BATCH_LINES)):
            for fields in _scan_lines(batch, ruleset, memo):
                # What NamedTuple._make does, without its Python-level call per line.
                yield fields if type(fields) is str else tuple.__new__(ScannedLine, fields)
        return
    pool: list[tuple[int, int, BinaryIO]] = []  # (pid, task pipe's write end, result pipe's reader)
    try:
        for _ in range(workers):
            # A Ctrl-C or SIGTERM handler that raised between the fork and the append would
            # leave a worker that the finally below neither closes nor waits for; blocked,
            # the signal arrives once the worker is in the pool.
            signal.pthread_sigmask(signal.SIG_BLOCK, _STOP_SIGNALS)
            try:
                task_fd, task_write_fd = os.pipe()
                result_read_fd, result_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    # A worker leaves only through os._exit: the parent's stack, with its
                    # staged outputs and their unflushed buffers, must not unwind here.
                    try:
                        _init_worker(ruleset)
                        # Another worker's pipe end held open here would keep that worker
                        # waiting, for a task or for room to write its result, until this
                        # one exits.
                        for fd in (task_write_fd, result_read_fd, *(fd for _, fd, _ in pool),
                                   *(reader.fileno() for _, _, reader in pool)):
                            os.close(fd)
                        _serve(task_fd, result_fd)
                    except BrokenPipeError:  # the parent closed its end: the run is over
                        pass
                    except Exception:
                        traceback.print_exc()
                        sys.stderr.flush()
                    finally:
                        os._exit(0)
                pool.append((pid, task_write_fd, open(result_read_fd, "rb")))
                os.close(task_fd)
                os.close(result_fd)
            finally:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
        sending: deque = deque()  # the workers that hold a batch, in the order it was sent
        for worker in pool:
            if not (batch := list(islice(lines, BATCH_LINES))):
                break
            _send_batch(worker, batch)
            sending.append(worker)
        while sending:
            worker = sending.popleft()
            batch = list(islice(lines, BATCH_LINES))
            results = _receive(worker[2])
            if results is None:
                raise WorkerLost(f"scan worker {worker[0]} ended before returning its batch")
            if batch:
                _send_batch(worker, batch)
                sending.append(worker)
            for fields in results:
                yield fields if type(fields) is str else tuple.__new__(ScannedLine, fields)
    finally:
        for _, task_write_fd, reader in pool:
            os.close(task_write_fd)
            reader.close()
        for pid, _, _ in pool:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # already reaped
                pass
