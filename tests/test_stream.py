"""The scan stage's channel between worker processes and the reduce.

Workers return only built-in types, the parent wraps them back into the
same items the sequential path yields, the pool never has more
processes than the CPUs this process may run on, and every worker it
forks is gone when the stream ends, however it ends.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import pytest

from conftest import FIXTURES
from loganon import default_ruleset, load_rules
from loganon import _stream
from loganon.cli import main

# Every kind of line the scan stage sees: good ones with and without matches,
# '#' characters, malformed fields, an embedded CR, CRLF ends and bad UTF-8.
LINE_KINDS = (
    b"1515625713 T-6201 (siavash) CMD (/home/siavash/config.sh > /dev/null)",
    b"1515625714 T-6202 crond[4242]: session opened for user root",
    b"1515625715 T-6201 disabling lock debugging due to kernel taint",
    b"1515625716 n1 stray # and #NUM_# and ## here",
    b"1515625717 n1 from 10.0.0.1 at 2018-01-30 12:00",
    b"1515625718 n2 ",
    b"no-timestamp here",
    b"x1 n1 non-integer timestamp",
    b"1515625719",
    b"1515625720 n1 embedded\rcarriage return",
    b"1515625721 n1 latin-1 caf\xe9",
    b"1515625722 n1 truncated \xe2\x82",
    b"1515625723 n1 ends with CRLF\r",
)
# Line kinds the parent yields as LineIssue.
ISSUE_KINDS = 6


@pytest.fixture
def corpus(tmp_path) -> Path:
    """Several batches of every line kind, with repeats for the scan memo."""
    path = tmp_path / "mixed.log"
    lines = [LINE_KINDS[(i * 7) % len(LINE_KINDS)] for i in range(5 * len(LINE_KINDS))]
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return path


def raw_lines(path: Path) -> list[tuple[int, bytes]]:
    return list(_stream.iter_raw_lines([path]))


def assert_builtin(obj) -> None:
    assert type(obj) in (tuple, str, int, bytes), repr(obj)
    if type(obj) is tuple:
        for part in obj:
            assert_builtin(part)


def shape(obj):
    """The types of ``obj`` and of everything it holds."""
    if isinstance(obj, tuple):
        return type(obj), tuple(shape(part) for part in obj)
    return type(obj)


def test_worker_results_are_builtin_types(corpus, monkeypatch):
    monkeypatch.setattr(_stream, "_worker_ruleset", None)
    monkeypatch.setattr(_stream, "_worker_memo", None)
    previous = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    try:
        _stream._init_worker(default_ruleset())
        results = _stream._scan_batch(raw_lines(corpus))
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    assert type(results) is list
    assert len(results) == 5 * len(LINE_KINDS)
    for fields in results:
        assert_builtin(fields)
    assert sum(len(fields) == 2 for fields in results) == 5 * ISSUE_KINDS
    assert any(fields[3] for fields in results if len(fields) == 4)


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise TimeoutError in the block if it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of each worker the scan stage forks, in order."""
    pids: list[int] = []
    fork = os.fork

    def recording_fork() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(_stream.os, "fork", recording_fork)
    return pids


def assert_all_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_pool_stream_equals_sequential(corpus, forks, monkeypatch):
    assert_pool_stream_equals_sequential(default_ruleset(), corpus, forks, monkeypatch)


def test_pool_stream_equals_sequential_with_a_rule_that_is_not_batch_safe(corpus, forks, monkeypatch):
    """cron_sample.rules mixes batch-safe rules with one that is not (PATH)."""
    assert_pool_stream_equals_sequential(load_rules(FIXTURES / "cron_sample.rules"), corpus, forks, monkeypatch)


def assert_pool_stream_equals_sequential(ruleset, corpus, forks, monkeypatch):
    """Two and three workers give the sequential stream, and every worker exits when it ends."""
    monkeypatch.setattr(_stream, "BATCH_LINES", 7)
    sequential = list(_stream.scanned_stream(raw_lines(corpus), ruleset, 1))
    kinds = {type(item) for item in sequential}
    assert kinds == {_stream.ScannedLine, _stream.LineIssue}
    for workers in (2, 3):
        monkeypatch.setattr(_stream, "_usable_cpus", lambda: workers)
        forks.clear()
        with deadline(30):
            pooled = list(_stream.scanned_stream(raw_lines(corpus), ruleset, workers))
        assert len(sequential) > workers * _stream.BATCH_LINES
        assert pooled == sequential
        assert [shape(item) for item in pooled] == [shape(item) for item in sequential]
        assert len(forks) == workers
        assert_all_reaped(forks)


def test_closing_the_pool_stream_early_leaves_no_worker(corpus, forks, monkeypatch):
    monkeypatch.setattr(_stream, "BATCH_LINES", 7)
    monkeypatch.setattr(_stream, "_usable_cpus", lambda: 2)
    stream = _stream.scanned_stream(raw_lines(corpus), default_ruleset(), 2)
    with deadline(30):
        next(stream)
        stream.close()
    assert len(forks) == 2
    assert_all_reaped(forks)


def test_worker_whose_scan_raises_ends_the_stream(corpus, forks, monkeypatch, capfd):
    """Each worker's second batch raises: the parent raises WorkerLost, not a hang."""
    monkeypatch.setattr(_stream, "BATCH_LINES", 7)
    monkeypatch.setattr(_stream, "_usable_cpus", lambda: 2)
    scan_batch = _stream._scan_batch
    batches = []

    def failing_scan_batch(batch):
        batches.append(batch)  # this worker's own list, a copy made by fork
        if len(batches) == 2:
            raise RuntimeError("scan failed on purpose")
        return scan_batch(batch)

    monkeypatch.setattr(_stream, "_scan_batch", failing_scan_batch)
    with deadline(30), pytest.raises(_stream.WorkerLost):
        list(_stream.scanned_stream(raw_lines(corpus), default_ruleset(), 2))
    assert len(forks) == 2
    assert_all_reaped(forks)
    assert "RuntimeError: scan failed on purpose" in capfd.readouterr().err


def test_interrupt_just_after_a_fork_still_reaps_that_worker(corpus, forks, monkeypatch):
    """Ctrl-C that lands as fork returns, before the worker is in the pool, leaves no worker."""
    monkeypatch.setattr(_stream, "_usable_cpus", lambda: 2)
    recording_fork = _stream.os.fork

    def interrupted_fork() -> int:
        pid = recording_fork()
        if pid:
            os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(_stream.os, "fork", interrupted_fork)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with deadline(30), pytest.raises(KeyboardInterrupt):
            list(_stream.scanned_stream(raw_lines(corpus), default_ruleset(), 2))
    finally:
        signal.signal(signal.SIGINT, previous)
        unreaped = []
        for pid in forks:
            try:
                if os.waitpid(pid, os.WNOHANG) == (0, 0):  # lost: it waits for a task for ever
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                unreaped.append(pid)
            except ChildProcessError:  # the stream waited for it
                pass
    assert len(forks) == 1
    assert unreaped == []


def test_send_to_a_dead_worker_raises_worker_lost():
    read_fd, write_fd = os.pipe()
    os.close(read_fd)  # what a dead worker leaves of its task pipe
    try:
        with pytest.raises(_stream.WorkerLost, match="scan worker 4242 "):
            _stream._send_batch((4242, write_fd, None), [(1, b"1 n m")])
    finally:
        os.close(write_fd)


# --- pool size -----------------------------------------------------------------

@pytest.mark.parametrize(
    ("affinity", "workers", "size"),
    [({0, 1}, 1000, 2), ({0, 1, 2, 3}, 3, 3), ({0, 1, 2}, 2, 2), ({3}, 1000, None), ({0, 1}, 1, None)],
)
def test_pool_never_exceeds_usable_cpus(corpus, forks, monkeypatch, affinity, workers, size):
    monkeypatch.setattr(_stream.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    ruleset = default_ruleset()
    items = list(_stream.scanned_stream(raw_lines(corpus), ruleset, workers))
    assert len(forks) == (size or 0)
    assert items == list(_stream.scanned_stream(raw_lines(corpus), ruleset, 1))


def test_pool_size_without_affinity_call_uses_cpu_count(corpus, forks, monkeypatch):
    monkeypatch.delattr(_stream.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_stream.os, "cpu_count", lambda: 3)
    list(_stream.scanned_stream(raw_lines(corpus), default_ruleset(), 8))
    assert len(forks) == 3


def test_workers_typo_forks_no_more_than_usable_cpus(corpus, forks, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(_stream.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outputs = {}
    for workers in ("1", "1000"):
        out = tmp_path / f"w{workers}"
        assert main(["anonymize", str(corpus), "--mode", "individual", "--emit-dictionary",
                     "--workers", workers, "--out", str(out)]) == 0
        outputs[workers] = {name: (out / name).read_bytes() for name in ("encoded.log", "dictionary.tsv")}
    capsys.readouterr()
    assert len(forks) == 2
    assert outputs["1000"] == outputs["1"]
