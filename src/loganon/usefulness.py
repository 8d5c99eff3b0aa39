"""Dominance-weighted data-usefulness metric and pattern-coverage tables.

For each event pattern p with frequency f_p among N_e entries, the dominance
is f_p/N_e. Each significant term slot (a symbol position in the pattern)
has a practical value domain (distinct values observed in the corpus for
that slot) of size N_val and a set of emitted symbols of size N_s. The
usefulness of a de-identified corpus is

    U = sum over patterns of  dominance * (product of N_s / product of N_val)

so U = 1 means no generalization loss for the intended analysis and values
near 0 mean the significant distinctions were generalized away. U is computed
one way: feed a UsefulnessAccumulator each entry's (value, symbol, slot)
triples and pattern, as rules.rewrite_matches returns them, and take its
report, keyed by the encoder.PatternKeys that encode_entry also uses.
usefulness_from_summary evaluates the same sum from aggregate (dominance,
ratio) shares when only those are known. All arithmetic is exact rational;
rendering rounds to 4 decimal places. The report renders each distinct
(f_p, ratio) once, when built; its rows carry their decimal texts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Union

from .encoder import PatternKeys

Rational = Union[int, float, str, Fraction]


class DomainError(ValueError):
    """Inputs outside the metric's domain (empty window, dominances over 1, ...)."""


def _as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    # Floats go through their shortest decimal repr, so 0.43 means 43/100.
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


class PatternRow(NamedTuple):
    """One pattern's line of a report; contribution = dominance * ratio.

    ``decimals`` holds (dominance, ratio, contribution) rendered to 4 places.
    """

    category_key: str
    pattern_text: str
    f_p: int
    dominance: Fraction
    ratio: Fraction
    contribution: Fraction
    decimals: tuple[str, str, str]


@dataclass(frozen=True)
class UsefulnessReport:
    """Per-pattern breakdown plus the aggregate usefulness U; an immutable value."""

    n_entries: int
    mode_label: str
    rows: tuple[PatternRow, ...]
    value: Fraction

    def csv_lines(self) -> list[str]:
        """CSV records; joined and ended by LF they are exactly csv.writer's output."""
        records = _Records()
        writer = csv.writer(records, lineterminator="\n")
        writer.writerow(["category", "pattern", "f_p", "D_p", "ratio", "contribution"])
        writer.writerows((row.category_key, row.pattern_text, row.f_p, *row.decimals) for row in self.rows)
        writer.writerow(["TOTAL", "", self.n_entries, _decimal_text(1, 1), "", render_decimal(self.value)])
        return records

    def table_lines(self) -> list[str]:
        """The table for a terminal; pattern text is escaped where not printable."""
        layout = "{:<12} {:>8} {:>8} {:>8} {:>8}  {}"
        lines = [layout.format("category", "f_p", "D_p", "ratio", "contrib", "pattern")]
        lines.extend(
            layout.format(row.category_key, row.f_p, *row.decimals, _printable(row.pattern_text))
            for row in self.rows
        )
        lines.append(
            f"usefulness ({self.mode_label}): {render_decimal(self.value)} "
            f"(exact {self.value.numerator}/{self.value.denominator}) over {self.n_entries} entries"
        )
        return lines


class _Records(list):
    """A csv.writer target that keeps each record without its LF terminator.

    Splitting the writer's output into lines instead would also break a
    record at form feed, U+2028 and other characters csv leaves unquoted.
    """

    def write(self, record: str) -> None:
        self.append(record[:-1])


def _printable(text: str) -> str:
    """text with each character str.isprintable() rejects written as its repr escape."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def usefulness_from_summary(
    rows: Iterable[tuple[Rational, Rational]],
    residual: Optional[tuple[Rational, Rational]] = None,
) -> Fraction:
    """Evaluate the metric from externally supplied (dominance, ratio) pairs.

    Useful when per-entry data is unavailable and only aggregate shares are
    known, e.g. the head of a frequency table plus an explicit residual term
    for everything outside it. Ratios may be 0 to assign no utility to a
    share. Raises DomainError when the dominances exceed 1 in total.
    """
    terms = [( _as_fraction(d), _as_fraction(r)) for d, r in rows]
    if residual is not None:
        terms.append((_as_fraction(residual[0]), _as_fraction(residual[1])))
    total_dominance = sum((d for d, _ in terms), Fraction(0))
    if total_dominance > 1:
        raise DomainError(f"dominances sum to {total_dominance} > 1")
    for d, r in terms:
        if d < 0:
            raise DomainError(f"negative dominance {d}")
        if not 0 <= r <= 1:
            raise DomainError(f"ratio {r} outside [0, 1]")
    return sum((d * r for d, r in terms), Fraction(0))


@dataclass(frozen=True)
class CoverageTable:
    """Cumulative share of entries produced by the K most frequent patterns."""

    n_entries: int
    n_patterns: int
    rows: tuple[tuple[int, Fraction], ...]

    def csv_lines(self) -> list[str]:
        lines = [
            f"#Raw log entries,{self.n_entries}",
            f"#Event patterns,{self.n_patterns}",
            "K,coverage_percent",
        ]
        for k, coverage in self.rows:
            lines.append(f"{k},{float(coverage) * 100:.2f}")
        return lines


def top_k_coverage(frequencies: Iterable[int], ks: Iterable[int]) -> CoverageTable:
    """Coverage of the top-K patterns for each requested K.

    ``frequencies`` holds one f_p >= 1 per pattern. Patterns are ranked by
    frequency; a K beyond the pattern count yields the full-coverage row.
    """
    k_list = list(ks)
    if not k_list or any(k < 1 for k in k_list):
        raise DomainError(f"K values must be >= 1, got {k_list}")
    ranked = sorted(frequencies, reverse=True)
    if ranked and ranked[-1] < 1:
        raise DomainError(f"pattern frequencies must be >= 1, got {ranked[-1]}")
    cumulative = list(accumulate(ranked))
    n_entries = cumulative[-1] if cumulative else 0
    rows = []
    for k in k_list:
        covered = cumulative[min(k, len(cumulative)) - 1] if cumulative else 0
        share = Fraction(covered, n_entries) if n_entries else Fraction(0)
        rows.append((k, share))
    return CoverageTable(n_entries=n_entries, n_patterns=len(cumulative), rows=tuple(rows))


class UsefulnessAccumulator:
    """Streaming usefulness over rewritten entries; the report is U and its rows.

    Tracks, per pattern, f_p (N_e is their sum) and, per significant slot,
    each value's symbol: N_val counts the values, N_s their distinct symbols.
    Neither depends on the order of the entries. report() turns them into
    rows in one pass over the patterns, then sorts the rows by (-f_p, category key).
    """

    def __init__(self) -> None:
        # pattern text -> [f_p, {slot: {value: symbol}}]
        self._patterns: dict[str, list] = {}

    def add(self, significant: Iterable[tuple[str, str, int]], pattern: str) -> None:
        """Count one entry: its (value, symbol, slot) triples and its event pattern.

        Raises DomainError, naming both symbols but not the value, when a
        value comes back under another symbol in its slot; the rejected
        entry leaves the accumulator as it was.
        """
        state = self._patterns.get(pattern) or [0, {}]
        slots = state[1]
        # The (slot, value) pairs this entry stores first, taken back if it is rejected.
        stored = []
        for value, symbol, slot in significant:
            symbols = slots.get(slot) or slots.setdefault(slot, {})
            first = symbols.get(value)
            if first is None:
                symbols[value] = symbol
                stored.append((slot, value))
            elif first != symbol:
                for stored_slot, stored_value in stored:
                    del slots[stored_slot][stored_value]
                    if not slots[stored_slot]:
                        del slots[stored_slot]
                raise DomainError(
                    f"pattern {pattern!r}: slot {slot} holds a value under both {first!r} and {symbol!r}"
                )
        state[0] += 1
        self._patterns[pattern] = state

    def report(self, mode_label: str = "", keys: Optional[PatternKeys] = None) -> UsefulnessReport:
        """The report over the entries so far; ``keys`` may be shared by one run's accumulators.

        Category keys take the width of ``keys``, 4 bytes with none. Raises
        CollisionDetected when two patterns share a category key.
        """
        n_entries = sum(f_p for f_p, _ in self._patterns.values())
        if n_entries == 0:
            raise DomainError("empty analysis window")
        if keys is None:
            keys = PatternKeys()
        # (f_p, num, den) -> (dominance, ratio, contribution) and their 4-place
        # texts; num/den is prod N_s / prod N_val, unreduced, and rows repeat
        # few values, so each distinct one is computed and rendered once.
        memo: dict[tuple[int, int, int], tuple[Fraction, Fraction, Fraction, tuple[str, str, str]]] = {}
        # Ratio terms -> sum of f_p over the patterns with that ratio.
        mass: dict[tuple[int, int], int] = {}
        rows = []
        for pattern, (f_p, slots) in self._patterns.items():
            category_key = keys.key(pattern)
            num = den = 1
            for symbols in slots.values():
                num *= len(set(symbols.values()))
                den *= len(symbols)
            row_values = memo.get((f_p, num, den))
            if row_values is None:
                share = Fraction(f_p, n_entries)
                ratio = Fraction(num, den)
                # _decimal_text(k*a, k*b) == _decimal_text(a, b), so the unreduced
                # terms render as the reduced Fractions would.
                row_values = memo[f_p, num, den] = (share, ratio, share * ratio, (
                    _decimal_text(f_p, n_entries),
                    _decimal_text(num, den),
                    _decimal_text(f_p * num, n_entries * den),
                ))
            rows.append(PatternRow(category_key, pattern, f_p, *row_values))
            mass[num, den] = mass.get((num, den), 0) + f_p
        rows.sort(key=lambda row: (-row.f_p, row.category_key))
        # U = sum over distinct ratios r of r * (sum of f_p) / N_e.
        value = sum((Fraction(num * f, den) for (num, den), f in mass.items()), Fraction(0)) / n_entries
        return UsefulnessReport(n_entries=n_entries, mode_label=mode_label, rows=tuple(rows), value=value)


def render_decimal(value: Rational) -> str:
    """Round an exact rational to 4 places; ties round half to even (banker's rounding)."""
    frac = _as_fraction(value)
    return _decimal_text(frac.numerator, frac.denominator)


def _decimal_text(num: int, den: int) -> str:
    """num/den (den > 0) rounded half to even to 4 decimals, in integers."""
    rounded, rest = divmod(num * 10_000, den)
    if 2 * rest > den or (2 * rest == den and rounded & 1):
        rounded += 1
    sign = "-" if rounded < 0 else ""
    whole, fracpart = divmod(abs(rounded), 10_000)
    return f"{sign}{whole}.{fracpart:04d}"
