from __future__ import annotations

import os
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import pytest
from hypothesis import settings

from loganon import (
    EncodingDictionaries,
    Mode,
    RuleSet,
    StorageTally,
    SymbolRegistry,
    TermClass,
    UsefulnessAccumulator,
    encode_entry,
    load_rules,
    parse_line,
    process_entry,
    sanitize_message,
    tokenize,
)

FIXTURES = Path(__file__).parent / "fixtures"
# A well-formed symbol: #NAME#, #NAME_#, #NAMEk# or #NAME<label>#.
SYMBOL_RE = re.compile(r"#[A-Z][A-Za-z0-9]{0,7}[A-Za-z0-9_]*#")
SRC = Path(__file__).resolve().parent.parent / "src"
# Rule-file keys given values they cannot take, each a configuration error.
BAD_RULE_VALUES = [("mode", "bogus"), ("significant", "maybe")]
# Rule files with a misspelt or unknown key, and the error each must give.
UNKNOWN_RULE_KEYS = [
    pytest.param(
        "[rule NUM]\npattern = \\d+\nsignficant = yes\n",
        "unknown key 'signficant' in [rule NUM]",
        id="signficant",
    ),
    pytest.param(
        "[rule NUM]\npattern = \\d+\nmdoe = individual\n",
        "unknown key 'mdoe' in [rule NUM]",
        id="mdoe",
    ),
    pytest.param("[ruleset]\nworkers = 4\n", "unknown key 'workers' in [ruleset]", id="workers"),
]

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def child_env() -> dict[str, str]:
    """This process's environment with PYTHONPATH naming this tree's src/.

    For a child interpreter that runs `python -m loganon` or a demo, so it
    imports the code under test and not an installed copy.
    """
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_fixture_entries(name: str) -> list[tuple[int, str, str]]:
    lines = (FIXTURES / name).read_text(encoding="utf-8").splitlines()
    return [parse_line(line) for line in lines]


@pytest.fixture(scope="session")
def cron_ruleset() -> RuleSet:
    return load_rules(FIXTURES / "cron_sample.rules")


@pytest.fixture(scope="session")
def cron_entries() -> list[tuple[int, str, str]]:
    return load_fixture_entries("cron_sample.log")


@pytest.fixture(scope="session")
def mixed_ruleset() -> RuleSet:
    return load_rules(FIXTURES / "mixed_sample.rules")


@pytest.fixture(scope="session")
def mixed_entries() -> list[tuple[int, str, str]]:
    return load_fixture_entries("mixed_sample.log")


def reference_parse(line: str) -> tuple:
    """``(fields, None)`` for a good line, ``(None, reason)`` for a bad one.

    Built only on str.split(" ", 2) and str.isspace, with the reason texts
    that MalformedLine carries.
    """
    fields = line.split(" ", 2)
    if len(fields) < 2:
        return None, "fewer than 2 fields"
    ts_text, source = fields[0], fields[1]
    message = fields[2] if len(fields) == 3 else ""
    if not ts_text or not set(ts_text) <= set("0123456789"):
        return None, "non-integer timestamp"
    if not source or any(c.isspace() for c in source):
        return None, "bad source field"
    if "\n" in message or "\r" in message:
        return None, "line contains embedded line terminator"
    return (int(ts_text), source, message), None


def anonymize_reference(lines: Iterable[str], ruleset: RuleSet) -> dict[str, list[str]]:
    """What `anonymize --emit-dictionary --emit-meanings` writes for ``lines``, without its memo.

    Each output file's name maps to its lines without their LF, and
    "storage report" to the six lines the command prints first. Built
    from parse_line, process_entry and encode_entry, one line at a time.
    """
    registry = SymbolRegistry()
    dicts = EncodingDictionaries()
    tally = StorageTally()
    encoded: list[str] = []
    symbol_rows: dict[tuple[str, str], None] = {}
    for line in lines:
        timestamp, source, message = parse_line(line)
        deid_message, significant, pattern = process_entry(message, ruleset, registry)
        hash_key, category_key = encode_entry(deid_message, pattern, dicts)
        encoded.append(f"{timestamp} {source} {hash_key} {category_key}")
        tally.add(len(message.encode("utf-8")))
        for value, symbol, _ in significant:
            symbol_rows.setdefault((symbol, value))
    return {
        "encoded.log": encoded,
        "dictionary.tsv": [f"{symbol}\t{value}" for symbol, value in symbol_rows],
        "meanings.tsv": [f"{key}\t{text}" for key, text in dicts.messages.items()],
        "storage report": tally.report(dicts),
    }


def brute_force_rows(entries: list[tuple[int, str, str]], ruleset: RuleSet) -> list[tuple[str, int, Fraction]]:
    """Reference report rows: (pattern, f_p, ratio) per event pattern, sorted.

    Deliberately simple and non-streaming: materialize every de-identified
    entry, bucket them by event pattern, and place each significant value at
    its position in the pattern, found by walking tokenize() of the
    sanitized message: each well-formed symbol in a constant term is one
    position, and so is each variable term. Distinct values and symbols per
    position are counted with plain set comprehensions.
    """
    registry = SymbolRegistry()
    by_pattern: dict[str, list[dict[int, tuple[str, str]]]] = {}
    for _, _, message in entries:
        _, significant, pattern = process_entry(message, ruleset, registry)
        symbols = iter(significant)
        placed: dict[int, tuple[str, str]] = {}
        position = 0
        for text, klass in tokenize(sanitize_message(message), ruleset):
            if klass is TermClass.CONSTANT:
                position += len(SYMBOL_RE.findall(text))
                continue
            if klass is TermClass.VARIABLE_SIGNIFICANT:
                placed[position] = (text, next(symbols)[1])
            position += 1
        by_pattern.setdefault(pattern, []).append(placed)
    rows = []
    for pattern, entries_placed in by_pattern.items():
        ratio = Fraction(1)
        for position in set().union(*entries_placed):
            values = {p[position][0] for p in entries_placed if position in p}
            symbols = {p[position][1] for p in entries_placed if position in p}
            ratio *= Fraction(len(symbols), len(values))
        rows.append((pattern, len(entries_placed), ratio))
    return sorted(rows)


def brute_force_usefulness(entries: list[tuple[int, str, str]], ruleset: RuleSet) -> Fraction:
    """Reference usefulness: the dominance-weighted sum of brute_force_rows."""
    return sum(
        (Fraction(f_p, len(entries)) * ratio for _, f_p, ratio in brute_force_rows(entries, ruleset)),
        Fraction(0),
    )


def accumulate_counts(
    patterns: Iterable[tuple[str, int, Sequence[tuple[int, int]]]],
) -> UsefulnessAccumulator:
    """An accumulator fed (value, symbol, slot) triples that realize each pattern's counts exactly.

    ``patterns`` holds (text, f_p, [(n_values, n_symbols), ...]) with
    distinct texts and 1 <= n_symbols <= n_values <= f_p in every slot.
    Entry k of a pattern holds value k % n_values and symbol
    (k % n_values) % n_symbols in each slot, so the slot sees exactly
    n_values values and n_symbols symbols, each value under one symbol.
    """
    acc = UsefulnessAccumulator()
    for text, f_p, slots in patterns:
        for k in range(f_p):
            significant = [
                (f"v{k % n_values}", f"#S{k % n_values % n_symbols}#", slot)
                for slot, (n_values, n_symbols) in enumerate(slots)
            ]
            acc.add(significant, text)
    return acc


def shell_cmd_rulesets() -> dict[str, RuleSet]:
    """Five de-identification degrees for the two shell-command sample messages."""
    from loganon import TermRule

    user = dict(name="USR", pattern=r"(?<=\()[a-z]+(?=\) cmd \()")
    path = r"/[^\s()]+"
    return {
        "raw": RuleSet(()),
        "global": RuleSet((TermRule(**user, significant=True), TermRule("PATH", path))),
        "type1": RuleSet(
            (
                TermRule(**user, significant=True, mode=Mode.GLOBAL),
                TermRule("PATH", path, significant=True, mode=Mode.INDIVIDUAL),
            )
        ),
        "type2": RuleSet(
            (TermRule(**user, significant=True), TermRule("PATH", path, significant=True)),
            Mode.INDIVIDUAL,
        ),
        "type3": RuleSet(
            (TermRule(**user, significant=True, mode=Mode.INDIVIDUAL), TermRule("PATH", path))
        ),
    }


SHELL_CMD_A = "(siavash) cmd (/home/siavash/config.sh > /dev/null)"
SHELL_CMD_B = "(florina) cmd (/home/florina/setup.sh > /dev/null)"
