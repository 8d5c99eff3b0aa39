"""Command-line front end: anonymize, usefulness, patterns, compare, gen.

Wires the streaming pipeline end to end: parse -> de-identify -> encode,
plus the analysis commands over the same scan stage. Exit codes: 0 success,
2 configuration error, 3 hash collision detected, 4 parse failure in strict
mode.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from ._stream import LineIssue, RunMemo, iter_raw_lines, scanned_stream
from .encoder import (
    CollisionDetected,
    EncoderConfig,
    EncodingDictionaries,
    StorageTally,
    encode_entry,
    hash_text,
)
from .grids import (
    DEFAULT_MINUTE_WINDOW,
    build_grid,
    difference_grid,
    emit_grid,
    similarity_grid,
)
from .model import DeidentifiedEntry, EncodedEntry, render_entry
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
from .usefulness import PatternStats, UsefulnessAccumulator, top_k_coverage

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLISION = 3
EXIT_PARSE = 4

SECONDS_PER_DAY = 86400


class StrictParseFailure(Exception):
    def __init__(self, lineno: int, reason: str) -> None:
        super().__init__(f"line {lineno}: {reason}")
        self.lineno = lineno


@dataclass
class RunConfig:
    """Validated common options for the pipeline commands."""

    inputs: list[str]
    ruleset: RuleSet
    encoder: EncoderConfig
    out_dir: Path
    strict: bool = False
    workers: int = 1
    emit_dictionary: bool = False
    emit_meanings: bool = False
    per_day: bool = False
    epoch_day0: int = 0


def _build_config(args: argparse.Namespace, *, for_pipeline: bool = True) -> RunConfig:
    for path in args.inputs:
        if path != "-" and not Path(path).exists():
            raise ConfigError(f"input not found: {path}")
    if for_pipeline:
        if getattr(args, "rules", None):
            ruleset = load_rules(args.rules)
        else:
            ruleset = default_ruleset()
        mode = getattr(args, "mode", None)
        if mode:
            ruleset = ruleset.with_mode(Mode(mode))
    else:
        ruleset = RuleSet(())
    digest = getattr(args, "digest_bytes", 4)
    if not 4 <= digest <= 32:
        raise ConfigError(f"--digest-bytes must be in [4, 32], got {digest}")
    emit_dictionary = getattr(args, "emit_dictionary", False)
    emit_meanings = getattr(args, "emit_meanings", False)
    if emit_meanings and not emit_dictionary:
        raise ConfigError("--emit-meanings requires --emit-dictionary")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ConfigError("--workers must be >= 1")
    out_dir = Path(getattr(args, "out", "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    return RunConfig(
        inputs=list(args.inputs),
        ruleset=ruleset,
        encoder=EncoderConfig(digest_length_bytes=digest),
        out_dir=out_dir,
        strict=getattr(args, "strict", False),
        workers=workers,
        emit_dictionary=emit_dictionary,
        emit_meanings=emit_meanings,
        per_day=getattr(args, "per_day", False),
        epoch_day0=getattr(args, "epoch_day0", 0),
    )


def cmd_anonymize(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    registry = SymbolRegistry()
    dicts = EncodingDictionaries()
    tally = StorageTally()
    symbol_rows: dict[tuple[str, str], None] = {}
    # Sanitized message -> (hash_key, category_key, deid_message, pattern).
    # Exact: a repeated message gets the same rewrite in every mode, since
    # individual-mode indices are fixed at a value's first occurrence.
    # Hits still register both keys, so counts and collision checks hold.
    memo = RunMemo()
    encoded_path = cfg.out_dir / "encoded.log"
    skipped = 0
    with open(encoded_path, "w", encoding="utf-8", newline="\n") as out:
        for item in scanned_stream(iter_raw_lines(cfg.inputs), cfg.ruleset, cfg.workers):
            if isinstance(item, LineIssue):
                if cfg.strict:
                    raise StrictParseFailure(item.lineno, item.reason)
                skipped += 1
                continue
            known = memo.get(item.sanitized)
            if known is None:
                deid_message, significant, pattern = rewrite_matches(
                    item.sanitized, item.matches, cfg.ruleset, registry
                )
                deid = DeidentifiedEntry(item.timestamp, item.source, deid_message, significant)
                encoded = encode_entry(deid, pattern, dicts, cfg.encoder)
                memo.admit(
                    item.sanitized, (encoded.hash_key, encoded.category_key, deid_message, pattern)
                )
                for sig in significant:
                    symbol_rows.setdefault((sig.symbol, sig.original_value))
            else:
                hash_key, category_key, deid_message, pattern = known
                dicts.register(hash_key, deid_message, category_key, pattern)
                encoded = EncodedEntry(item.timestamp, item.source, hash_key, category_key)
            out.write(render_entry(encoded) + "\n")
            tally.add(item.message, encoded)
    if cfg.emit_dictionary:
        dict_path = cfg.out_dir / "dictionary.tsv"
        with open(dict_path, "w", encoding="utf-8", newline="\n") as f:
            for symbol, value in symbol_rows:
                f.write(f"{symbol}\t{value}\n")
    if cfg.emit_meanings:
        meanings_path = cfg.out_dir / "meanings.tsv"
        with open(meanings_path, "w", encoding="utf-8", newline="\n") as f:
            for key, text, _ in dicts.messages.items():
                f.write(f"{key}\t{text}\n")
    report = tally.report(dicts)
    for line in report.lines():
        print(line)
    print(f"skipped lines: {skipped}")
    print(f"event patterns: {len(dicts.patterns)}")
    print(f"encoded file: {encoded_path}")
    return EXIT_OK


def _day_of(timestamp: int, epoch_day0: int) -> int:
    return (timestamp - epoch_day0) // SECONDS_PER_DAY


def cmd_usefulness(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    registry = SymbolRegistry()
    accumulators: dict[Optional[int], UsefulnessAccumulator] = {}
    skipped = 0
    for item in scanned_stream(iter_raw_lines(cfg.inputs), cfg.ruleset, cfg.workers):
        if isinstance(item, LineIssue):
            if cfg.strict:
                raise StrictParseFailure(item.lineno, item.reason)
            skipped += 1
            continue
        deid_message, significant, pattern = rewrite_matches(
            item.sanitized, item.matches, cfg.ruleset, registry
        )
        deid = DeidentifiedEntry(item.timestamp, item.source, deid_message, significant)
        key = _day_of(item.timestamp, cfg.epoch_day0) if cfg.per_day else None
        acc = accumulators.get(key)
        if acc is None:
            acc = accumulators[key] = UsefulnessAccumulator()
        acc.add(deid, pattern)
    if not accumulators:
        print("no entries", file=sys.stderr)
        return EXIT_OK
    mode_label = cfg.ruleset.mode.value
    for key in sorted(accumulators, key=lambda k: (k is not None, k)):
        acc = accumulators[key]
        report = acc.report(mode_label, cfg.encoder)
        suffix = "" if key is None else f"_d{key}"
        csv_path = cfg.out_dir / f"usefulness{suffix}.csv"
        csv_path.write_text("\n".join(report.csv_lines()) + "\n", encoding="utf-8")
        if key is not None:
            print(f"--- day {key} ---")
        for line in report.table_lines():
            print(line)
    if skipped:
        print(f"skipped lines: {skipped}")
    return EXIT_OK


def cmd_patterns(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    try:
        ks = [int(k) for k in args.top.split(",") if k.strip()]
    except ValueError:
        raise ConfigError(f"bad --top list: {args.top!r}") from None
    if not ks:
        raise ConfigError("--top must name at least one K")
    counts: Counter[str] = Counter()
    skipped = 0
    for item in scanned_stream(iter_raw_lines(cfg.inputs), cfg.ruleset, cfg.workers):
        if isinstance(item, LineIssue):
            if cfg.strict:
                raise StrictParseFailure(item.lineno, item.reason)
            skipped += 1
            continue
        _, _, pattern = rewrite_matches(item.sanitized, item.matches, cfg.ruleset, None)
        counts[pattern] += 1
    stats = [
        PatternStats(hash_text(pattern, cfg.encoder), pattern, f_p)
        for pattern, f_p in counts.items()
    ]
    table = top_k_coverage(stats, ks) if stats else None
    csv_path = cfg.out_dir / "coverage.csv"
    if table is None:
        csv_path.write_text("#Raw log entries,0\n#Event patterns,0\nK,coverage_percent\n")
        print("no entries")
        return EXIT_OK
    csv_path.write_text("\n".join(table.csv_lines()) + "\n", encoding="utf-8")
    for line in table.csv_lines():
        print(line)
    if skipped:
        print(f"skipped lines: {skipped}")
    return EXIT_OK


def _parse_span(text: str, flag: str) -> tuple[int, int]:
    try:
        first, _, last = text.partition(":")
        return int(first), int(last)
    except ValueError:
        raise ConfigError(f"bad {flag} value: {text!r} (expected FIRST:LAST)") from None


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _build_config(args, for_pipeline=False)
    window = _parse_span(args.window, "--window")
    if not 0 <= window[0] < window[1] <= 1440:
        raise ConfigError(f"--window must lie within [0, 1440): {args.window}")
    node_a, node_b = args.node_a, args.node_b
    entries = []
    skipped = 0
    for item in scanned_stream(iter_raw_lines(cfg.inputs), cfg.ruleset, cfg.workers):
        if isinstance(item, LineIssue):
            if cfg.strict:
                raise StrictParseFailure(item.lineno, item.reason)
            skipped += 1
            continue
        if item.source in (node_a, node_b):
            entries.append(item)
    if args.days:
        day_range = _parse_span(args.days, "--days")
    else:
        days = [_day_of(e.timestamp, cfg.epoch_day0) for e in entries]
        day_range = (min(days), max(days)) if days else (0, 0)
    grid_a = build_grid(entries, node_a, day_range, window, cfg.epoch_day0)
    grid_b = build_grid(entries, node_b, day_range, window, cfg.epoch_day0)
    for grid, name in ((grid_a, node_a), (grid_b, node_b)):
        if not grid.occupied.any():
            print(f"warning: node {name} has no entries in the selected frame", file=sys.stderr)
    outputs = [
        (grid_a, f"{node_a}_occurrence"),
        (grid_b, f"{node_b}_occurrence"),
        (similarity_grid(grid_a, grid_b), f"{node_a}-{node_b}_similarity"),
        (difference_grid(grid_a, grid_b), f"{node_a}-{node_b}_difference"),
    ]
    for grid, stem in outputs:
        path = emit_grid(grid, args.format, cfg.out_dir / f"{stem}.{args.format}")
        print(f"wrote {path}")
    if skipped:
        print(f"skipped lines: {skipped}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
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
    if args.out == "-":
        for line in generate_lines(spec):
            sys.stdout.write(line + "\n")
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            for line in generate_lines(spec):
                f.write(line + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _add_pipeline_flags(sub: argparse.ArgumentParser, *, with_mode: bool = True) -> None:
    sub.add_argument("inputs", nargs="+", help="input log files, or - for stdin")
    sub.add_argument("--rules", help="rule file (INI); omit for the built-in ruleset")
    if with_mode:
        sub.add_argument(
            "--mode",
            choices=[m.value for m in Mode],
            help="granularity for significant terms (default: rule-file setting or global)",
        )
    sub.add_argument("--digest-bytes", type=int, default=4, help="hash key width in bytes (4-32)")
    sub.add_argument("--strict", action="store_true", help="abort on the first malformed line")
    sub.add_argument("--workers", type=int, default=1, help="parallel scan workers")
    sub.add_argument("--out", default=".", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loganon",
        description="Anonymize system logs by rule substitution and fixed-width hash "
        "encoding, and measure what the result is still good for.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("anonymize", help="de-identify and encode a log corpus")
    _add_pipeline_flags(p)
    p.add_argument("--emit-dictionary", action="store_true", help="write symbol->value rows")
    p.add_argument(
        "--emit-meanings", action="store_true", help="write hash->message rows (needs --emit-dictionary)"
    )
    p.set_defaults(func=cmd_anonymize)

    p = sub.add_parser("usefulness", help="per-pattern dominance and aggregate usefulness")
    _add_pipeline_flags(p)
    p.add_argument("--per-day", action="store_true", help="one report per day instead of one overall")
    p.add_argument("--epoch-day0", type=int, default=0, help="timestamp of day index 0")
    p.set_defaults(func=cmd_usefulness)

    p = sub.add_parser("patterns", help="top-K event-pattern coverage table")
    _add_pipeline_flags(p)
    p.add_argument("--top", default="5,25,50", help="comma-separated K values")
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("compare", help="occurrence/similarity/difference grids for two nodes")
    p.add_argument("inputs", nargs="+", help="raw or encoded log files")
    p.add_argument("node_a")
    p.add_argument("node_b")
    p.add_argument("--epoch-day0", type=int, default=0, help="timestamp of day index 0")
    p.add_argument("--window", default=f"{DEFAULT_MINUTE_WINDOW[0]}:{DEFAULT_MINUTE_WINDOW[1]}",
                   help="minute window START:END within a day")
    p.add_argument("--days", help="day index range FIRST:LAST (default: span of the data)")
    p.add_argument("--format", choices=["csv", "pgm"], default="csv")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=".")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GroupMapIncomplete as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CollisionDetected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except StrictParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
