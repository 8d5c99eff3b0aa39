"""Command-line front end: anonymize, usefulness, patterns, compare, gen.

Wires the streaming pipeline end to end: parse -> de-identify -> encode,
plus the analysis commands over the same scan stage. Exit codes: 0 success,
2 configuration error or input outside the metric's domain, 3 hash
collision detected, 4 parse failure in strict mode, 5 a scan worker process
died before returning its batch (--workers 2 or more), 141 stdout closed by
its reader (128 + SIGPIPE, as a shell reports a filter killed by SIGPIPE),
143 SIGTERM (128 + SIGTERM). A run that fails removes its staged outputs.
"""

from __future__ import annotations

import argparse
import errno
import os
import signal
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TextIO

from ._stream import RunMemo, ScannedLine, WorkerLost, iter_raw_lines, scanned_stream
from .encoder import CollisionDetected, EncodingDictionaries, PatternKeys, StorageTally, encode_entry
from .grids import (
    DEFAULT_MINUTE_WINDOW,
    build_grid,
    day_index,
    difference_grid,
    emit_grid,
    similarity_grid,
)
from .model import MalformedLine
# Called by no command; perfbench/traced.py times the next two names in this module.
from .encoder import hash_text  # noqa: F401
from .model import render_entry  # noqa: F401
from .rules import (
    ConfigError,
    GroupMapIncomplete,
    Mode,
    RuleSet,
    SymbolRegistry,
    default_ruleset,
    load_rules,
    rewrite_matches,
)
from .synth import CorpusSpec, generate_lines
from .usefulness import (
    CoverageTable,
    DomainError,
    UsefulnessAccumulator,
    top_k_coverage,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3
EXIT_PARSE = 4
EXIT_WORKER = 5


# Exceptions a command may end with, and the exit code each one maps to.
EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    DomainError: EXIT_CONFIG,
    CollisionDetected: EXIT_COLLISION,
    MalformedLine: EXIT_PARSE,
    WorkerLost: EXIT_WORKER,
    OSError: EXIT_CONFIG,
}


@dataclass
class RunConfig:
    """Checked options shared by the pipeline commands, and the run's line and skipped-line counts."""

    inputs: list[str]
    ruleset: RuleSet
    out_dir: Path
    strict: bool
    workers: int
    skipped: int = 0
    lineno: int = 0

    def entries(self) -> Iterator[ScannedLine]:
        """The parsed entries of the inputs in order.

        Each input line is one item of the stream, a malformed one its reason,
        so ``lineno``, the run's only line count, counts the items. A malformed
        line raises MalformedLine, naming ``lineno``, under --strict and is
        counted in ``skipped`` otherwise.
        """
        for item in scanned_stream(iter_raw_lines(self.inputs), self.ruleset, self.workers):
            self.lineno += 1
            if type(item) is str:
                if self.strict:
                    raise MalformedLine(f"line {self.lineno}: {item}")
                self.skipped += 1
                continue
            yield item


Options = Callable[[argparse.Namespace], RuleSet]


def _rule_options(args: argparse.Namespace) -> RuleSet:
    """The ruleset of --rules and --mode; also checks --digest-bytes."""
    ruleset = load_rules(args.rules) if args.rules else default_ruleset()
    if args.mode:
        ruleset = ruleset.with_mode(Mode(args.mode))
    if not 4 <= args.digest_bytes <= 32:
        raise ConfigError(f"--digest-bytes must be in [4, 32], got {args.digest_bytes}")
    return ruleset


def _anonymize_options(args: argparse.Namespace) -> RuleSet:
    ruleset = _rule_options(args)
    if args.emit_meanings and not args.emit_dictionary:
        raise ConfigError("--emit-meanings requires --emit-dictionary")
    return ruleset


def _pattern_options(args: argparse.Namespace) -> RuleSet:
    """The rules of --rules in global mode, none with a mode of its own.

    An event pattern does not depend on the mode, so a rule file's modes and
    group tables are loaded and checked, but global mode reads none of them.
    """
    ruleset = load_rules(args.rules) if args.rules else default_ruleset()
    return RuleSet(tuple(replace(rule, mode=None) for rule in ruleset.rules))


def _run_config(args: argparse.Namespace, read_options: Optional[Options] = None) -> RunConfig:
    """Check the inputs, the command's rule options, --workers, then create --out.

    Without ``read_options`` the run scans with no rules. A command checks
    any other option of its own before calling this, so a bad value leaves
    no directory behind.
    """
    for path in args.inputs:
        if path != "-" and not Path(path).exists():
            raise ConfigError(f"input not found: {path}")
        if path != "-" and Path(path).is_dir():
            raise ConfigError(f"input is a directory: {path}")
    ruleset = read_options(args) if read_options else RuleSet(())
    if args.workers < 1:
        raise ConfigError("--workers must be >= 1")
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    return RunConfig(list(args.inputs), ruleset, out_dir, args.strict, args.workers)


@contextmanager
def _naming_line(cfg: RunConfig) -> Iterator[None]:
    """Prefix a GroupMapIncomplete raised in the block with the number of the line last read."""
    try:
        yield
    except GroupMapIncomplete as exc:
        raise GroupMapIncomplete(f"line {cfg.lineno}: {exc}") from None


@contextmanager
def _staged_outputs(out_dir: Path) -> Iterator[Callable[[str], TextIO]]:
    """Yield ``create(name)``, which opens ``<name>.tmp`` in out_dir for writing.

    Every file loganon writes is opened here, as UTF-8 text with LF line
    ends. Each file is moved onto its name when the block succeeds and
    removed on any exception, one already moved included, so a failed run
    leaves no output that looks complete.
    """
    names: list[str] = []
    renamed: list[str] = []

    def create(name: str) -> TextIO:
        names.append(name)
        return open(out_dir / f"{name}.tmp", "w", encoding="utf-8", newline="\n")

    try:
        yield create
        for name in names:
            os.replace(out_dir / f"{name}.tmp", out_dir / name)
            renamed.append(name)
    except BaseException:
        for name in names:
            (out_dir / f"{name}.tmp").unlink(missing_ok=True)
        for name in renamed:
            (out_dir / name).unlink(missing_ok=True)
        raise


def cmd_anonymize(args: argparse.Namespace) -> int:
    cfg = _run_config(args, _anonymize_options)
    registry = SymbolRegistry()
    dicts = EncodingDictionaries(args.digest_bytes)
    tally = StorageTally(dicts)
    symbol_rows: dict[tuple[str, str], None] = {}
    # Sanitized message -> (tail, message bytes): the encoded line after its
    # timestamp and source, " <hash_key> <category_key>\n", and the message's
    # UTF-8 length. Exact: a repeated message gets the same rewrite in every
    # mode, since individual-mode indices are fixed at a value's first
    # occurrence. A message enters only after encode_entry registered both its
    # keys, so a hit registers nothing and cannot collide.
    memo = RunMemo()
    with _staged_outputs(cfg.out_dir) as create:
        with create("encoded.log") as out, _naming_line(cfg):
            for timestamp, source, sanitized, matches in cfg.entries():
                known = memo.get(sanitized)
                if known is None:
                    deid_message, significant, pattern = rewrite_matches(
                        sanitized, matches, cfg.ruleset, registry
                    )
                    hash_key, category_key = encode_entry(deid_message, pattern, dicts)
                    # sanitize_message only swaps '#' for '?', so the sanitized
                    # text has the raw message's UTF-8 length.
                    known = (f" {hash_key} {category_key}\n", len(sanitized.encode("utf-8")))
                    memo.admit(sanitized, known)
                    if args.emit_dictionary:
                        for value, symbol, _ in significant:
                            symbol_rows.setdefault((symbol, value))
                tail, message_bytes = known
                out.write(f"{timestamp} {source}{tail}")
                tally.add(message_bytes)
        if args.emit_dictionary:
            with create("dictionary.tsv") as f:
                for symbol, value in symbol_rows:
                    f.write(f"{symbol}\t{value}\n")
        if args.emit_meanings:
            with create("meanings.tsv") as f:
                for key, text in dicts.messages.items():
                    f.write(f"{key}\t{text}\n")
    for line in tally.report():
        print(line)
    print(f"skipped lines: {cfg.skipped}")
    print(f"event patterns: {len(dicts.patterns)}")
    print(f"encoded file: {cfg.out_dir / 'encoded.log'}")
    return EXIT_OK


def cmd_usefulness(args: argparse.Namespace) -> int:
    cfg = _run_config(args, _rule_options)
    registry = SymbolRegistry()
    accumulators: dict[Optional[int], UsefulnessAccumulator] = defaultdict(UsefulnessAccumulator)
    with _naming_line(cfg):
        for timestamp, _, sanitized, matches in cfg.entries():
            _, significant, pattern = rewrite_matches(sanitized, matches, cfg.ruleset, registry)
            key = day_index(timestamp, args.epoch_day0) if args.per_day else None
            accumulators[key].add(significant, pattern)
    if not accumulators:
        print("no entries", file=sys.stderr)
    pattern_keys = PatternKeys(args.digest_bytes)
    # Every report is built, and so every category key registered, before
    # any is written, so a collision (exit 3) leaves no table and no file.
    reports = [
        (key, accumulators[key].report(cfg.ruleset.mode.value, pattern_keys))
        for key in sorted(accumulators)
    ]
    with _staged_outputs(cfg.out_dir) as create:
        for key, report in reports:
            suffix = "" if key is None else f"_d{key}"
            with create(f"usefulness{suffix}.csv") as f:
                f.write("\n".join(report.csv_lines()) + "\n")
            header = "" if key is None else f"--- day {key} ---\n"
            sys.stdout.write(header + "\n".join(report.table_lines()) + "\n")
    if cfg.skipped:
        print(f"skipped lines: {cfg.skipped}")
    return EXIT_OK


def cmd_patterns(args: argparse.Namespace) -> int:
    try:
        ks = [int(k) for k in args.top.split(",") if k.strip()]
    except ValueError:
        raise ConfigError(f"bad --top list: {args.top!r}") from None
    if not ks:
        raise ConfigError("--top must name at least one K")
    if min(ks) < 1:
        raise ConfigError(f"--top values must be >= 1: {args.top!r}")
    cfg = _run_config(args, _pattern_options)
    counts: Counter[str] = Counter()
    for _, _, sanitized, matches in cfg.entries():
        _, _, pattern = rewrite_matches(sanitized, matches, cfg.ruleset, None)
        counts[pattern] += 1
    table = top_k_coverage(counts.values(), ks) if counts else CoverageTable(0, 0, ())
    lines = table.csv_lines()
    with _staged_outputs(cfg.out_dir) as create, create("coverage.csv") as f:
        f.write("\n".join(lines) + "\n")
    print("\n".join(lines) if counts else "no entries")
    if cfg.skipped:
        print(f"skipped lines: {cfg.skipped}")
    return EXIT_OK


def _parse_span(text: str, flag: str) -> tuple[int, int]:
    try:
        first, _, last = text.partition(":")
        return int(first), int(last)
    except ValueError:
        raise ConfigError(f"bad {flag} value: {text!r} (expected FIRST:LAST)") from None


def cmd_compare(args: argparse.Namespace) -> int:
    if args.node_a == args.node_b:
        raise ConfigError(f"compare needs two different nodes, got {args.node_a!r} twice")
    # The node names become output file names, which must stay inside --out.
    for node in (args.node_a, args.node_b):
        if any(sep and sep in node for sep in (os.sep, os.altsep)):
            raise ConfigError(f"compare node names must not hold a path separator: {node!r}")
    window = _parse_span(args.window, "--window")
    if not 0 <= window[0] < window[1] <= 1440:
        raise ConfigError(f"--window must lie within [0, 1440): {args.window}")
    if args.days:
        day_range = _parse_span(args.days, "--days")
        if day_range[0] > day_range[1]:
            raise ConfigError(f"--days must have FIRST <= LAST: {args.days}")
    cfg = _run_config(args)
    node_a, node_b = args.node_a, args.node_b
    day0 = args.epoch_day0
    # Each node's minutes since day0 that hold an entry: all build_grid reads of an
    # entry, so memory is bounded by the corpus's days x 1,440 per node.
    minutes: dict[str, set[int]] = {node_a: set(), node_b: set()}
    for timestamp, source, _, _ in cfg.entries():
        if source in minutes:
            minutes[source].add((timestamp - day0) // 60)
    if not args.days:
        occupied = minutes[node_a] | minutes[node_b]
        day_range = (min(occupied) // 1440, max(occupied) // 1440) if occupied else (0, 0)
    grid_a, grid_b = (
        build_grid(((day0 + 60 * m, node) for m in minutes[node]), node, day_range, window, day0)
        for node in (node_a, node_b)
    )
    for grid, name in ((grid_a, node_a), (grid_b, node_b)):
        if not grid.cells:
            print(f"warning: node {name} has no entries in the selected frame", file=sys.stderr)
    fmt = args.format
    outputs = [
        (grid_a, f"{node_a}_occurrence.{fmt}"),
        (grid_b, f"{node_b}_occurrence.{fmt}"),
        (similarity_grid(grid_a, grid_b), f"{node_a}-{node_b}_similarity.{fmt}"),
        (difference_grid(grid_a, grid_b), f"{node_a}-{node_b}_difference.{fmt}"),
    ]
    with _staged_outputs(cfg.out_dir) as create:
        for grid, name in outputs:
            with create(name) as f:
                emit_grid(grid, fmt, f)
    for _, name in outputs:
        print(f"wrote {cfg.out_dir / name}")
    if cfg.skipped:
        print(f"skipped lines: {cfg.skipped}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = CorpusSpec(
            entries=args.entries,
            patterns=args.patterns,
            seed=args.seed,
            zipf_exponent=args.zipf_s,
            nodes=args.nodes,
            days=args.days,
            epoch_day0=args.epoch_day0,
            style=args.style,
            users=args.users,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        import numpy  # noqa: F401  # only gen needs numpy; see generate_lines
    except ImportError:
        raise ConfigError("gen needs numpy: pip install 'loganon[gen]'") from None
    if args.out == "-":
        for line in generate_lines(spec):
            sys.stdout.write(line + "\n")
        return EXIT_OK
    out = Path(args.out)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if not out.parent.is_dir():
        code = errno.ENOTDIR if out.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(out.parent))
    with _staged_outputs(out.parent) as create, create(out.name) as f:
        for line in generate_lines(spec):
            f.write(line + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


WORKERS_HELP = (
    "parallel scan processes, at most the CPUs this process may run on; "
    "1 scans in this process (output is byte-identical for any value)"
)


def _add_rewrite_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--rules", help="rule file (INI); omit for the built-in ruleset")
    sub.add_argument("--mode", choices=[m.value for m in Mode],
                     help="granularity for significant terms (default: rule-file setting or global)")
    sub.add_argument("--digest-bytes", type=int, default=4, help="hash key width in bytes (4-32)")


def _add_input_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("inputs", nargs="+", help="input log files, or - for stdin")
    sub.add_argument("--strict", action="store_true", help="abort on the first malformed line")
    sub.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loganon",
        description="Anonymize system logs by rule substitution and fixed-width hash "
        "encoding, and measure what the result is still good for.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anonymize", help="de-identify and encode a log corpus")
    _add_rewrite_flags(p)
    _add_input_flags(p)
    p.add_argument("--emit-dictionary", action="store_true", help="write symbol->value rows")
    p.add_argument(
        "--emit-meanings", action="store_true", help="write hash->message rows (needs --emit-dictionary)"
    )
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("usefulness", help="per-pattern dominance and aggregate usefulness")
    _add_rewrite_flags(p)
    _add_input_flags(p)
    p.add_argument("--per-day", action="store_true", help="one report per day instead of one overall")
    p.add_argument("--epoch-day0", type=int, default=0, help="timestamp of day index 0")
    p.set_defaults(func=cmd_usefulness)

    p = sub.add_parser("patterns", help="top-K event-pattern coverage table")
    p.add_argument("--rules", help="rule file (INI); omit for the built-in ruleset; "
                   "its modes and group tables are ignored")
    _add_input_flags(p)
    p.add_argument("--top", default="5,25,50", help="comma-separated K values")
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("compare", help="occurrence/similarity/difference grids for two nodes")
    p.add_argument("--epoch-day0", type=int, default=0, help="timestamp of day index 0")
    p.add_argument("--window", default=f"{DEFAULT_MINUTE_WINDOW[0]}:{DEFAULT_MINUTE_WINDOW[1]}",
                   help="minute window START:END within a day")
    p.add_argument("--days", help="day index range FIRST:LAST (default: span of the data)")
    p.add_argument("--format", choices=["csv", "pgm"], default="csv")
    # After the options above and before the nodes, so the usage line keeps its order.
    _add_input_flags(p)
    p.add_argument("node_a")
    p.add_argument("node_b")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen", help="generate a seeded synthetic corpus")
    p.add_argument("--entries", type=int, required=True)
    p.add_argument("--patterns", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zipf-s", type=float, default=1.0, help="Zipf exponent")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--epoch-day0", type=int, default=0)
    p.add_argument("--style", choices=["plain", "cmd"], default="plain")
    p.add_argument("--users", type=int, default=50, help="user pool size for cmd style")
    p.add_argument("--out", default="-", help="output file, - for stdout")
    p.set_defaults(func=cmd_gen)

    return parser


def _interrupt(signum, frame) -> None:
    """SIGTERM exits 143 (128 + SIGTERM, as a shell reports it); Ctrl-C raises KeyboardInterrupt.

    Both unwind, so staged outputs are removed. Later ones are ignored, so they cannot cut
    that cleanup short, nor the wait for the scan workers to exit.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise SystemExit(143) if signum == signal.SIGTERM else KeyboardInterrupt


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    # Only the main thread may set a handler (a program that calls main() from another
    # thread keeps its own), and a signal that is ignored stays ignored.
    previous = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            if signal.getsignal(signum) is not signal.SIG_IGN:
                previous[signum] = signal.signal(signum, _interrupt)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away. Point stdout at devnull so the
        # interpreter's final flush stays silent, and exit as a filter
        # killed by SIGPIPE would: 128 + 13.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


if __name__ == "__main__":
    sys.exit(main())
