"""Every output file reads back exactly with a plain reader.

The reader contract (README, "Output files"): ``encoded.log`` splits on LF
into lines; ``dictionary.tsv`` and ``meanings.tsv`` split on LF, then on
the first TAB; ``usefulness*.csv`` and ``coverage.csv`` go through
``csv.reader`` on a file opened with ``newline=""``. Messages here are
built from the characters most likely to break that: the line boundaries
``str.splitlines`` knows besides LF and CR, TAB, quotes, commas, ``#``
and characters outside the BMP.
"""

from __future__ import annotations

import csv
import io
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from loganon import (
    SymbolRegistry,
    UsefulnessAccumulator,
    load_rules,
    parse_line,
    process_entry,
    render_decimal,
)
from loganon.cli import main

from conftest import anonymize_reference

SEPARATORS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
ALPHABET = list(SEPARATORS) + ["\t", '"', ",", "#", " ", "\U0001F600", "\U00010348", "A", "b", "1", "<", ">"]
# One significant rule whose values can hold any of the characters above,
# so they reach dictionary.tsv too.
RULES = "[ruleset]\nmode = individual\n\n[rule VAL]\npattern = <[^<>]+>\nsignificant = yes\n"
TOP = (1, 3)

texts = st.text(st.sampled_from(ALPHABET), max_size=12)
messages = st.one_of(
    texts,
    st.builds("{}<{}>{}".format, texts, st.text(st.sampled_from(ALPHABET[:-2]), min_size=1), texts),
)
corpora = st.lists(st.tuples(st.sampled_from(["n1", "n2"]), messages), min_size=1, max_size=8)


def read_lf(path: Path) -> list[str]:
    text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n")
    return text[:-1].split("\n")


def read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t", 1) for line in read_lf(path)]


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def expected_outputs(lines: list[str], rules_path: Path) -> dict[str, list]:
    """The rows each output must hold, from the library calls the commands are built on."""
    ruleset = load_rules(rules_path)
    registry = SymbolRegistry()
    acc = UsefulnessAccumulator()
    patterns = Counter()
    for line in lines:
        _, _, message = parse_line(line)
        _, significant, pattern = process_entry(message, ruleset, registry)
        acc.add(significant, pattern)
        patterns[pattern] += 1
    anonymized = anonymize_reference(lines, ruleset)
    report = acc.report()
    usefulness_rows = [["category", "pattern", "f_p", "D_p", "ratio", "contribution"]]
    usefulness_rows += [
        [row.category_key, row.pattern_text, str(row.f_p), render_decimal(row.dominance),
         render_decimal(row.ratio), render_decimal(row.contribution)]
        for row in report.rows
    ]
    usefulness_rows.append(["TOTAL", "", str(len(lines)), "1.0000", "", render_decimal(report.value)])
    counts = sorted(patterns.values(), reverse=True)
    coverage_rows = [["#Raw log entries", str(len(lines))], ["#Event patterns", str(len(counts))],
                     ["K", "coverage_percent"]]
    coverage_rows += [[str(k), f"{float(Fraction(sum(counts[:k]), len(lines))) * 100:.2f}"] for k in TOP]
    return {
        "encoded.log": anonymized["encoded.log"],
        "dictionary.tsv": [line.split("\t", 1) for line in anonymized["dictionary.tsv"]],
        "meanings.tsv": [line.split("\t", 1) for line in anonymized["meanings.tsv"]],
        "usefulness.csv": usefulness_rows,
        "coverage.csv": coverage_rows,
    }


@settings(max_examples=60)
@given(corpora)
def test_outputs_read_back_with_plain_readers(corpus):
    lines = [f"{i} {source} {message}" for i, (source, message) in enumerate(corpus)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        log, rules, out = tmp / "in.log", tmp / "in.rules", tmp / "out"
        log.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
        rules.write_text(RULES, encoding="utf-8")
        with redirect_stdout(io.StringIO()):
            assert main(["anonymize", str(log), "--rules", str(rules), "--emit-dictionary",
                         "--emit-meanings", "--out", str(out)]) == 0
            assert main(["usefulness", str(log), "--rules", str(rules), "--out", str(out)]) == 0
            assert main(["patterns", str(log), "--rules", str(rules),
                         "--top", ",".join(map(str, TOP)), "--out", str(out)]) == 0
        expected = expected_outputs(lines, rules)
        assert read_lf(out / "encoded.log") == expected["encoded.log"]
        if expected["dictionary.tsv"]:
            assert read_tsv(out / "dictionary.tsv") == expected["dictionary.tsv"]
        else:
            assert (out / "dictionary.tsv").read_bytes() == b""
        assert read_tsv(out / "meanings.tsv") == expected["meanings.tsv"]
        assert read_csv(out / "usefulness.csv") == expected["usefulness.csv"]
        assert read_csv(out / "coverage.csv") == expected["coverage.csv"]
