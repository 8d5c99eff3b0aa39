"""The scan stage's channel between worker processes and the reduce.

Workers return only built-in types, the parent wraps them back into the
same items the sequential path yields, and the pool never has more
processes than the CPUs this process may run on.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from types import SimpleNamespace

import pytest

from loganon import default_ruleset
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


def test_pool_stream_equals_sequential(corpus, monkeypatch):
    monkeypatch.setattr(_stream, "BATCH_LINES", 7)
    monkeypatch.setattr(_stream, "_usable_cpus", lambda: 2)
    ruleset = default_ruleset()
    sequential = list(_stream.scanned_stream(raw_lines(corpus), ruleset, 1))
    pooled = list(_stream.scanned_stream(raw_lines(corpus), ruleset, 2))
    assert len(sequential) > _stream.BATCH_LINES
    assert pooled == sequential
    assert [shape(item) for item in pooled] == [shape(item) for item in sequential]
    kinds = {type(item) for item in sequential}
    assert kinds == {_stream.ScannedLine, _stream.LineIssue}


# --- pool size -----------------------------------------------------------------

class FakeContext:
    """A multiprocessing context whose Pool scans in this process and records its size."""

    def __init__(self) -> None:
        self.sizes: list[int] = []

    def Pool(self, processes, initializer, initargs):
        self.sizes.append(processes)
        return FakePool(*initargs)


class FakePool:
    def __init__(self, ruleset) -> None:
        self.ruleset = ruleset

    def __enter__(self) -> "FakePool":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def apply_async(self, fn, args):
        (batch,) = args
        result = [_stream._scan_one(lineno, raw, self.ruleset, None) for lineno, raw in batch]
        return SimpleNamespace(get=lambda: result)

    def close(self) -> None:
        pass

    def join(self) -> None:
        pass


@pytest.fixture
def fake_pool(monkeypatch) -> FakeContext:
    context = FakeContext()
    monkeypatch.setattr(_stream.multiprocessing, "get_context", lambda method: context)
    return context


@pytest.mark.parametrize(
    ("affinity", "workers", "size"),
    [({0, 1}, 1000, 2), ({0, 1, 2, 3}, 3, 3), ({0, 1, 2}, 2, 2), ({3}, 1000, None), ({0, 1}, 1, None)],
)
def test_pool_never_exceeds_usable_cpus(corpus, fake_pool, monkeypatch, affinity, workers, size):
    monkeypatch.setattr(_stream.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    ruleset = default_ruleset()
    items = list(_stream.scanned_stream(raw_lines(corpus), ruleset, workers))
    assert fake_pool.sizes == ([] if size is None else [size])
    assert items == list(_stream.scanned_stream(raw_lines(corpus), ruleset, 1))


def test_pool_size_without_affinity_call_uses_cpu_count(corpus, fake_pool, monkeypatch):
    monkeypatch.delattr(_stream.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_stream.os, "cpu_count", lambda: 3)
    list(_stream.scanned_stream(raw_lines(corpus), default_ruleset(), 8))
    assert fake_pool.sizes == [3]


def test_workers_typo_forks_no_more_than_usable_cpus(corpus, fake_pool, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(_stream.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    outputs = {}
    for workers in ("1", "1000"):
        out = tmp_path / f"w{workers}"
        assert main(["anonymize", str(corpus), "--mode", "individual", "--emit-dictionary",
                     "--workers", workers, "--out", str(out)]) == 0
        outputs[workers] = {name: (out / name).read_bytes() for name in ("encoded.log", "dictionary.tsv")}
    capsys.readouterr()
    assert fake_pool.sizes == [2]
    assert outputs["1000"] == outputs["1"]
