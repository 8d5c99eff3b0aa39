"""Workload table shared by run.py (untimed CLI runs) and traced.py (traced CLI runs).

Every workload is one `loganon` command on a corpus that `loganon gen`
makes from the benchmark's seed. The corpus shape is the ROADMAP baseline
(20000 Zipf patterns, 300 users, 16 nodes, 4 days); only the entry count
is smaller, so that a run holds several repetitions of the command.

Why these workloads: `plain` messages never match a rule and repeat
heavily (what a per-message memo would exploit); `cmd` messages carry a
user and a path, so individual mode grows the symbol registry and most
de-identified messages are distinct (what a memo would miss). The three
analysis commands share the scan -> rewrite loop with `anonymize` but
write no encoded corpus, so a change to that loop that helps one
command and slows another shows as its own workload.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import oracle

DEFAULT_ENTRIES = 40000
GEN_FLAGS = ("--patterns", "20000", "--users", "300", "--nodes", "16", "--days", "4")


@dataclass(frozen=True)
class Workload:
    style: str  # corpus style passed to `loganon gen --style`
    command: str  # loganon subcommand; the corpus path follows it
    args: tuple[str, ...]  # options after the corpus path, without --out
    expect: Callable[[oracle.Corpus], oracle.Expected]
    why: str
    # Same command with other options whose outputs must be byte-identical.
    reference_args: Optional[tuple[str, ...]] = None

    def argv(self, corpus: str, out_dir: str, args: Optional[tuple[str, ...]] = None) -> list[str]:
        return [self.command, corpus, *(self.args if args is None else args), "--out", out_dir]


_CMD_INDIVIDUAL = (
    "--mode", "individual", "--digest-bytes", "8", "--emit-dictionary", "--emit-meanings",
)

WORKLOADS: dict[str, Workload] = {
    "anon-plain-global": Workload(
        style="plain",
        command="anonymize",
        args=("--mode", "global", "--workers", "1"),
        expect=functools.partial(oracle.expect_anonymize, width=4),
        why="long plain messages with no rule match that mostly repeat: scan and hashing dominate",
    ),
    "anon-cmd-individual": Workload(
        style="cmd",
        command="anonymize",
        args=(*_CMD_INDIVIDUAL, "--workers", "1"),
        expect=functools.partial(oracle.expect_anonymize, width=8),
        why="two matches per line and mostly distinct keys: rewrite, symbol registry, dictionaries, writes",
    ),
    "anon-cmd-individual-w2": Workload(
        style="cmd",
        command="anonymize",
        args=(*_CMD_INDIVIDUAL, "--workers", "2"),
        expect=functools.partial(oracle.expect_anonymize, width=8),
        why="the only workload that runs the fork pool, RuleMatch pickling and the ordered merge",
        reference_args=(*_CMD_INDIVIDUAL, "--workers", "1"),
    ),
    "usefulness-cmd": Workload(
        style="cmd",
        command="usefulness",
        args=("--mode", "global", "--per-day"),
        expect=oracle.expect_usefulness,
        why="shared scan and rewrite, no per-line hashing; exact Fraction report per day",
    ),
    "patterns-cmd": Workload(
        style="cmd",
        command="patterns",
        args=("--top", "5,25,50"),
        expect=functools.partial(oracle.expect_patterns, ks=(5, 25, 50)),
        why="shared scan and pattern-only rewrite, then top-K coverage",
    ),
    "compare-cmd": Workload(
        style="cmd",
        command="compare",
        args=("n001", "n002", "--window", "0:1440", "--format", "pgm"),
        expect=functools.partial(oracle.expect_compare, node_a="n001", node_b="n002"),
        why="parse and grid building only, no rule scan: read and parse cost without the rules layer",
    ),
}
