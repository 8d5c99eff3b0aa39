"""Traced run of one workload: the program's own `loganon.cli.main` with layer timers.

run.py starts this script with PYTHONPATH set to the checkout's src/. It
rebinds the functions and methods that the command loops call to timed
wrappers, then calls `cli.main` with the workload's arguments, so the
loop that runs is the program's. It records the self time of every call
into a module's public functions under the layer names of BENCHMARK.json.
run.py compares its output files byte for byte, and its stdout line by
line, with the untraced CLI run.

The names are rebound where `cli` looks them up: in the `cli` module for
its imported functions, on the classes for methods. The scan side
(`parse_line`, `sanitize_message`, `scan_message`) runs inside
`loganon._stream`, in worker processes when --workers > 1; those names
are rebound in `_stream`, and workers add their totals to a shared array
after every batch. UTF-8 decoding is inline in `_stream`, so with one
worker it counts in stream.wait_s.

Prints, after the command's own output, one JSON object:
{"layers": {...}, "counts": {...}, "untimed_s": ...}, where untimed_s is
the time of `cli.main` that no span in this process covers.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import loganon
from loganon import _stream, cli, encoder, rules
# The package rebinds the name `usefulness` to the metric function.
from loganon.usefulness import CoverageTable, UsefulnessAccumulator, UsefulnessReport

from workloads import WORKLOADS

LAYERS = (
    "stream.read_s",
    "stream.wait_s",
    "model.parse_s",
    "model.render_s",
    "rules.sanitize_s",
    "rules.scan_s",
    "rules.rewrite_s",
    "encoder.encode_s",
    "encoder.tally_s",
    "cli.write_s",
    "usefulness.add_s",
    "usefulness.report_s",
    "usefulness.coverage_s",
    "grids.build_s",
    "grids.emit_s",
)
SCAN_LAYERS = ("model.parse_s", "rules.sanitize_s", "rules.scan_s")
# Functions `cli` imported by name, and the layer their calls count in.
CLI_FUNCTIONS = {
    "render_entry": "model.render_s",
    "encode_entry": "encoder.encode_s",
    "hash_text": "encoder.encode_s",
    "top_k_coverage": "usefulness.coverage_s",
    "build_grid": "grids.build_s",
    "similarity_grid": "grids.emit_s",
    "difference_grid": "grids.emit_s",
    "emit_grid": "grids.emit_s",
}
METHODS = (
    (encoder.StorageTally, "add", "encoder.tally_s"),
    (encoder.StorageTally, "report", "encoder.tally_s"),
    (UsefulnessAccumulator, "add", "usefulness.add_s"),
    (UsefulnessAccumulator, "report", "usefulness.report_s"),
    (UsefulnessReport, "csv_lines", "usefulness.report_s"),
    (UsefulnessReport, "table_lines", "usefulness.report_s"),
    (CoverageTable, "csv_lines", "usefulness.coverage_s"),
)


class Tracer:
    """Self time per layer; spans nest on the main thread only.

    A span's self time is its duration minus the spans opened inside it.
    Calls from other threads (the pool's feeder thread reading input)
    are counted flat, since they overlap the main thread.
    """

    def __init__(self) -> None:
        self.self_s: Counter[str] = Counter()
        self._open: list[float] = []
        self._main = threading.get_ident()

    def call(self, layer, fn, *args, **kwargs):
        on_main = threading.get_ident() == self._main
        if on_main:
            self._open.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            own = elapsed
            if on_main:
                own -= self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
            self.self_s[layer] += own

    def wrap(self, layer, fn):
        def timed(*args, **kwargs):
            return self.call(layer, fn, *args, **kwargs)

        return timed

    def iterate(self, layer, iterable):
        it = iter(iterable)
        while True:
            try:
                item = self.call(layer, next, it)
            except StopIteration:
                return
            yield item


TRACER = Tracer()
# Created before the pool forks, so every worker shares it.
WORKER_TOTALS = multiprocessing.get_context("fork").Array("d", len(SCAN_LAYERS))
_scan_batch = _stream._scan_batch


def _traced_scan_batch(batch):
    before = [TRACER.self_s[layer] for layer in SCAN_LAYERS]
    result = _scan_batch(batch)
    with WORKER_TOTALS.get_lock():
        for i, layer in enumerate(SCAN_LAYERS):
            WORKER_TOTALS[i] += TRACER.self_s[layer] - before[i]
    return result


class TimedFile:
    """A file opened by `cli` whose writes and close count in cli.write_s."""

    def __init__(self, *args, **kwargs) -> None:
        self._file = TRACER.call("cli.write_s", open, *args, **kwargs)

    def write(self, text: str) -> int:
        return TRACER.call("cli.write_s", self._file.write, text)

    def __enter__(self) -> "TimedFile":
        return self

    def __exit__(self, *exc) -> None:
        TRACER.call("cli.write_s", self._file.close)


class TimedPath(type(Path())):
    """The output directory `cli` builds; paths joined to it time write_text in cli.write_s.

    `emit_grid` makes a plain Path of what it is given, so grid files count in grids.emit_s.
    """

    def write_text(self, *args, **kwargs):
        return TRACER.call("cli.write_s", super().write_text, *args, **kwargs)


class Recorder:
    """Counts over what the command loop sees, and the state objects it builds."""

    def __init__(self) -> None:
        self.lines = 0
        self.matches = 0
        self.sanitized: set[str] = set()
        self.deidentified: set[str] = set()
        self.patterns: set[str] = set()
        self.built: dict[type, object] = {}

    def scanned_stream(self, lines, ruleset, workers=1):
        for item in TRACER.iterate("stream.wait_s", _scanned_stream(lines, ruleset, workers)):
            if isinstance(item, _stream.ScannedLine):
                self.lines += 1
                self.matches += len(item.matches)
                self.sanitized.add(item.sanitized)
            yield item

    def rewrite_matches(self, *args):
        result = TRACER.call("rules.rewrite_s", _rewrite_matches, *args)
        self.deidentified.add(result[0])
        self.patterns.add(result[2])
        return result

    def keep(self, cls):
        def build(*args, **kwargs):
            obj = self.built[cls] = cls(*args, **kwargs)
            return obj

        return build

    def counts(self, digest_bytes: int) -> dict:
        registry = self.built.get(rules.SymbolRegistry)
        dicts = self.built.get(encoder.EncodingDictionaries)
        n_keys = len(self.deidentified)
        return {
            "rules.matches": self.matches,
            "rules.distinct_messages": len(self.sanitized),
            "rules.repeat_ratio": 1 - len(self.sanitized) / self.lines,
            "rules.symbols": sum(1 for _ in registry.rows()) if registry is not None else 0,
            "encoder.distinct_keys": n_keys,
            "encoder.distinct_patterns": len(self.patterns),
            "encoder.dictionary_bytes": encoder.dictionary_bytes(dicts) if dicts is not None else 0,
            "encoder.collision_p_4b": collision_p(n_keys, 4),
            "encoder.collision_p_used": collision_p(n_keys, digest_bytes),
        }


_scanned_stream = _stream.scanned_stream
_iter_raw_lines = _stream.iter_raw_lines
_rewrite_matches = cli.rewrite_matches


def _install(recorder: Recorder) -> None:
    for layer, name in zip(SCAN_LAYERS, ("parse_line", "sanitize_message", "scan_message")):
        setattr(_stream, name, TRACER.wrap(layer, getattr(_stream, name)))
    _stream._scan_batch = _traced_scan_batch
    cli.iter_raw_lines = lambda paths: TRACER.iterate("stream.read_s", _iter_raw_lines(paths))
    cli.scanned_stream = recorder.scanned_stream
    cli.rewrite_matches = recorder.rewrite_matches
    for name, layer in CLI_FUNCTIONS.items():
        setattr(cli, name, TRACER.wrap(layer, getattr(cli, name)))
    for cls, name, layer in METHODS:
        setattr(cls, name, TRACER.wrap(layer, getattr(cls, name)))
    cli.open = TimedFile
    cli.Path = TimedPath
    cli.SymbolRegistry = recorder.keep(rules.SymbolRegistry)
    cli.EncodingDictionaries = recorder.keep(encoder.EncodingDictionaries)


def collision_p(n: int, width: int) -> float:
    """Birthday estimate 1 - exp(-n^2 / 2^(8b+1)) for n distinct keys of b bytes."""
    return -math.expm1(-(n * n) / 2 ** (8 * width + 1)) if n else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--src", required=True, help="the src/ directory loganon must come from")
    args = parser.parse_args()
    if Path(loganon.__file__).resolve().parent != Path(args.src).resolve() / "loganon":
        print(f"error: loganon imported from {loganon.__file__}, not {args.src}", file=sys.stderr)
        return 2
    argv = WORKLOADS[args.workload].argv(args.corpus, args.out)
    digest_bytes = getattr(cli.build_parser().parse_args(argv), "digest_bytes", 4)
    recorder = Recorder()
    _install(recorder)
    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start
    if code != 0:
        return code
    layers = {layer: TRACER.self_s[layer] for layer in LAYERS}
    in_process = sum(layers.values())
    for i, layer in enumerate(SCAN_LAYERS):
        layers[layer] += WORKER_TOTALS[i]
    print(json.dumps({"layers": layers, "counts": recorder.counts(digest_bytes), "untimed_s": main_s - in_process}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
