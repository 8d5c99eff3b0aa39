from __future__ import annotations

import codecs
import csv
import errno
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest

import loganon
from conftest import BAD_RULE_VALUES, FIXTURES, UNKNOWN_RULE_KEYS, child_env
from loganon import UsefulnessAccumulator, cli, hash_text, parse_line
from loganon.cli import main

CRON_LOG = str(FIXTURES / "cron_sample.log")
CRON_RULES = str(FIXTURES / "cron_sample.rules")
MIXED_LOG = str(FIXTURES / "mixed_sample.log")
MIXED_RULES = str(FIXTURES / "mixed_sample.rules")
NOT_UTF8_RULES = str(FIXTURES / "not_utf8.rules")
MISSING_RULES = str(FIXTURES / "no_such.rules")
# (?=b)a? matches the empty string before each "b".
EMPTY_MATCH_RULES = str(FIXTURES / "empty_match.rules")

# Frozen pair of distinct texts sharing one 4-byte key (birthday-searched offline).
COLLIDING_MESSAGES = ("probe message 14372", "probe message 70602")


def run(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_no_encoded_output(out_dir: Path) -> None:
    assert not (out_dir / "encoded.log").exists()
    assert not list(out_dir.glob("*.tmp"))


def test_anonymize_cron_fixture(tmp_path, capsys):
    code, out, _ = run(
        ["anonymize", CRON_LOG, "--rules", CRON_RULES, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    encoded = (tmp_path / "encoded.log").read_text().splitlines()
    assert len(encoded) == 20
    raw = Path(CRON_LOG).read_text().splitlines()
    for raw_line, enc_line in zip(raw, encoded):
        r, e = raw_line.split(" ", 2), enc_line.split(" ")
        assert r[0] == e[0] and r[1] == e[1]  # timestamp and source unchanged
        assert len(e) == 4 and len(e[2]) == len(e[3]) == 8
    categories = {line.split(" ")[3] for line in encoded}
    assert len(categories) == 6
    assert "skipped lines: 0" in out
    assert "event patterns: 6" in out


def test_anonymize_mixed_fixture(tmp_path, capsys):
    code, _, _ = run(
        ["anonymize", MIXED_LOG, "--rules", MIXED_RULES, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    encoded = (tmp_path / "encoded.log").read_text().splitlines()
    assert len(encoded) == 3
    assert encoded[0].startswith("1515625261 T-1230 ")


def test_anonymize_emits_dictionary_and_meanings(tmp_path, capsys):
    code, _, _ = run(
        [
            "anonymize", CRON_LOG, "--rules", CRON_RULES, "--mode", "individual",
            "--emit-dictionary", "--emit-meanings", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    dictionary = (tmp_path / "dictionary.tsv").read_text().splitlines()
    assert "#USER1#\tsiavash" in dictionary
    assert "#USER2#\tflorina" in dictionary
    assert "#USER3#\troot" in dictionary
    meanings = dict(line.split("\t", 1) for line in (tmp_path / "meanings.tsv").read_text().splitlines())
    encoded_keys = {line.split(" ")[2] for line in (tmp_path / "encoded.log").read_text().splitlines()}
    assert encoded_keys == set(meanings)


def test_anonymize_without_dictionary_same_encoded_log(tmp_path, capsys):
    argv = ["anonymize", CRON_LOG, "--rules", CRON_RULES, "--mode", "individual"]
    code, _, _ = run([*argv, "--emit-dictionary", "--out", str(tmp_path / "with")], capsys)
    assert code == 0
    code, _, _ = run([*argv, "--out", str(tmp_path / "without")], capsys)
    assert code == 0
    assert sorted(p.name for p in (tmp_path / "without").iterdir()) == ["encoded.log"]
    encoded = [(tmp_path / d / "encoded.log").read_bytes() for d in ("with", "without")]
    assert encoded[0] == encoded[1]


def test_anonymize_storage_counts_raw_message_bytes(tmp_path, capsys):
    messages = ["issue #42 in ü", "##", "#PATH# and # é", "(#USER_#) plain"]
    corpus = tmp_path / "in.log"
    corpus.write_text("".join(f"{i} n {m}\n" for i, m in enumerate(messages)), encoding="utf-8")
    code, out, _ = run(["anonymize", str(corpus), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert f"raw message bytes: {sum(len(m.encode('utf-8')) for m in messages)}\n" in out


def test_anonymize_strips_one_cr_before_lf(tmp_path, capsys):
    crlf, double_cr = tmp_path / "crlf.log", tmp_path / "double_cr.log"
    crlf.write_bytes(b"5 n msg\r\n")
    double_cr.write_bytes(b"5 n msg\r\r\n")
    out = tmp_path / "out"
    code, _, _ = run(
        ["anonymize", str(crlf), "--strict", "--emit-dictionary", "--emit-meanings", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert (out / "meanings.tsv").read_text().split("\t")[1] == "msg\n"
    code, stdout, _ = run(["anonymize", str(double_cr), "--out", str(tmp_path / "lenient")], capsys)
    assert code == 0
    assert "skipped lines: 1" in stdout
    assert (tmp_path / "lenient" / "encoded.log").read_bytes() == b""
    code, _, err = run(["anonymize", str(double_cr), "--strict", "--out", str(tmp_path / "strict")], capsys)
    assert code == 4
    assert err == "error: line 1: line contains embedded line terminator\n"


def test_a_byte_order_mark_that_opens_an_input_is_skipped(tmp_path, capsys):
    body = b"100 n1 hello\n200 n1 bye\n"
    plain, bom = tmp_path / "plain.log", tmp_path / "bom.log"
    plain.write_bytes(body)
    bom.write_bytes(codecs.BOM_UTF8 + body)
    expected = tmp_path / "expected"
    assert run(["anonymize", str(plain), str(plain), "--strict", "--out", str(expected)], capsys)[0] == 0
    # A file: the mark opens the second input, so it is skipped per input, not per run.
    code, _, _ = run(["anonymize", str(plain), str(bom), "--strict", "--out", str(tmp_path / "file")], capsys)
    assert code == 0
    assert (tmp_path / "file" / "encoded.log").read_bytes() == (expected / "encoded.log").read_bytes()
    # Standard input, through a real process so '-' reads actual stdin.
    proc = subprocess.run(
        [sys.executable, "-m", "loganon", "anonymize", str(plain), "-", "--strict", "--out", str(tmp_path / "stdin")],
        input=codecs.BOM_UTF8 + body, env=child_env(), capture_output=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stdin" / "encoded.log").read_bytes() == (expected / "encoded.log").read_bytes()
    # A mark anywhere else is left in the line.
    later = tmp_path / "later.log"
    later.write_bytes(body + codecs.BOM_UTF8 + body)
    code, _, err = run(["anonymize", str(later), "--strict", "--out", str(tmp_path / "later")], capsys)
    assert code == 4
    assert err == "error: line 3: non-integer timestamp\n"


@pytest.mark.parametrize("key,value", BAD_RULE_VALUES)
def test_rule_file_bad_value_exits_config(tmp_path, capsys, key, value):
    rules = tmp_path / "bad.rules"
    rules.write_text(f"[rule NUM]\npattern = \\d+\n{key} = {value}\n")
    out = tmp_path / "out"
    code, stdout, err = run(["anonymize", CRON_LOG, "--rules", str(rules), "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: rule NUM: ") and value in err
    assert err.count("\n") == 1
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("text,message", UNKNOWN_RULE_KEYS)
def test_rule_file_unknown_key_exits_config(tmp_path, capsys, text, message):
    rules = tmp_path / "typo.rules"
    rules.write_text(text)
    out = tmp_path / "out"
    code, stdout, err = run(["anonymize", CRON_LOG, "--rules", str(rules), "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert stdout == ""
    assert not out.exists()


def test_anonymize_meanings_requires_dictionary(tmp_path, capsys):
    code, _, err = run(
        ["anonymize", CRON_LOG, "--emit-meanings", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "emit-dictionary" in err


def test_anonymize_rejects_small_digest(tmp_path, capsys):
    code, _, _ = run(
        ["anonymize", CRON_LOG, "--digest-bytes", "2", "--out", str(tmp_path)], capsys
    )
    assert code == 2


def test_anonymize_missing_input(tmp_path, capsys):
    code, _, err = run(["anonymize", "no/such/file.log", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "not found" in err


def test_anonymize_collision_exit_code(tmp_path, capsys):
    corpus = tmp_path / "bad.log"
    corpus.write_text("".join(f"{i} n {m}\n" for i, m in enumerate(COLLIDING_MESSAGES)))
    rules = tmp_path / "empty.rules"
    rules.write_text("[ruleset]\nmode = global\n")
    code, _, err = run(
        ["anonymize", str(corpus), "--rules", str(rules), "--out", str(tmp_path)], capsys
    )
    assert code == 3
    assert err == (
        f"error: key {hash_text(COLLIDING_MESSAGES[0])} maps to both {COLLIDING_MESSAGES[0]!r} "
        f"and {COLLIDING_MESSAGES[1]!r}; increase the digest width and re-run (distinct keys "
        "so far: 1, width: 4 bytes; smallest --digest-bytes with a birthday estimate below 1e-6: 4)\n"
    )
    assert_no_encoded_output(tmp_path)


def test_anonymize_interrupt_leaves_no_output(tmp_path, monkeypatch):
    corpus = tmp_path / "in.log"
    corpus.write_text("10 n first line\n20 n second line\n")
    calls = []

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(*args)

    real = cli.rewrite_matches
    monkeypatch.setattr(cli, "rewrite_matches", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["anonymize", str(corpus), "--emit-dictionary", "--emit-meanings", "--out", str(out)])
    assert_no_encoded_output(out)
    assert list(out.iterdir()) == []


def test_anonymize_empty_input(tmp_path, capsys):
    corpus = tmp_path / "empty.log"
    corpus.write_text("")
    code, out, _ = run(["anonymize", str(corpus), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert (tmp_path / "encoded.log").read_text() == ""
    assert "entries: 0" in out
    assert "raw message bytes: 0" in out
    assert "saving excluding dictionary: 0.00%" in out


def test_anonymize_lenient_skips_and_counts(tmp_path, capsys):
    corpus = tmp_path / "in.log"
    corpus.write_text("10 n ok line\nnot a log line\n20 n another\n")
    code, out, _ = run(["anonymize", str(corpus), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "skipped lines: 1" in out
    assert len((tmp_path / "encoded.log").read_text().splitlines()) == 2


def test_anonymize_strict_aborts(tmp_path, capsys):
    corpus = tmp_path / "in.log"
    corpus.write_text("10 n ok line\nnot a log line\n")
    code, _, err = run(["anonymize", str(corpus), "--strict", "--out", str(tmp_path)], capsys)
    assert code == 4
    assert "line 2" in err
    assert_no_encoded_output(tmp_path)


ANALYSIS_ARGV = {
    "usefulness": [],
    "patterns": [],
    "compare": ["n", "m"],
}


@pytest.mark.parametrize("command", sorted(ANALYSIS_ARGV))
def test_lenient_skips_and_counts(tmp_path, capsys, command):
    corpus = tmp_path / "in.log"
    corpus.write_text("10 n ok line\nnot a log line\n20 n another\n")
    argv = [command, str(corpus), *ANALYSIS_ARGV[command], "--out", str(tmp_path / "out")]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert "skipped lines: 1" in out


# What usefulness and patterns print when every line is skipped: (stdout, stderr, files in --out).
ALL_SKIPPED = {
    "usefulness": ("skipped lines: 2\n", "no entries\n", []),
    "patterns": ("no entries\nskipped lines: 2\n", "", ["coverage.csv"]),
}


@pytest.mark.parametrize("command", sorted(ALL_SKIPPED))
def test_every_line_skipped_still_counts(tmp_path, capsys, command):
    corpus = tmp_path / "in.log"
    corpus.write_text("not a log line\nnor this\n")
    out_dir = tmp_path / "out"
    code, out, err = run([command, str(corpus), "--out", str(out_dir)], capsys)
    stdout, stderr, files = ALL_SKIPPED[command]
    assert (code, out, err) == (0, stdout, stderr)
    assert sorted(p.name for p in out_dir.iterdir()) == files


@pytest.mark.parametrize("command", sorted(ANALYSIS_ARGV))
def test_strict_aborts(tmp_path, capsys, command):
    corpus = tmp_path / "in.log"
    corpus.write_text("10 n ok line\nnot a log line\n")
    argv = [command, str(corpus), *ANALYSIS_ARGV[command], "--strict", "--out", str(tmp_path)]
    code, _, err = run(argv, capsys)
    assert code == 4
    assert "line 2" in err


def test_anonymize_rejects_invalid_utf8(tmp_path, capsys):
    corpus = tmp_path / "in.log"
    corpus.write_bytes(b"10 n ok\n20 n bad \xff byte\n")
    code, out, _ = run(["anonymize", str(corpus), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "skipped lines: 1" in out
    code, _, err = run(["anonymize", str(corpus), "--strict", "--out", str(tmp_path)], capsys)
    assert code == 4
    assert "UTF-8" in err


@pytest.mark.parametrize(
    "mode,rendered",
    [("global", "0.6167"), ("group", "0.7833"), ("individual", "1.0000")],
)
def test_usefulness_command(tmp_path, capsys, mode, rendered):
    code, out, _ = run(
        ["usefulness", CRON_LOG, "--rules", CRON_RULES, "--mode", mode, "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert f"usefulness ({mode}): {rendered}" in out
    csv_lines = (tmp_path / "usefulness.csv").read_text().splitlines()
    assert csv_lines[0] == "category,pattern,f_p,D_p,ratio,contribution"
    assert csv_lines[-1].endswith(rendered)


def test_usefulness_per_day(tmp_path, capsys):
    code, out, _ = run(
        [
            "usefulness", CRON_LOG, "--rules", CRON_RULES, "--per-day",
            "--epoch-day0", "1517270400", "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "usefulness_d0.csv").exists()
    assert (tmp_path / "usefulness_d1.csv").exists()
    assert "--- day 0 ---" in out and "--- day 1 ---" in out


def test_usefulness_per_day_hashes_each_pattern_once(tmp_path, capsys, monkeypatch):
    # "#NUM_# literal" and "5 literal" share one pattern with 0 and 1 slots.
    messages = ["job 17 done", "job 42 done", "disk full", "#NUM_# literal", "5 literal"]
    lines = [(day * 86400 + i, m) for day in range(3) for i, m in enumerate(messages[day:] + messages[:day])]
    corpus = tmp_path / "in.log"
    corpus.write_text("".join(f"{ts} n {m}\n" for ts, m in lines))
    hashed = []

    def counted(text, cfg):
        hashed.append(text)
        return hash_text(text, cfg)

    monkeypatch.setattr(loganon.encoder, "hash_text", counted)
    code, _, _ = run(["usefulness", str(corpus), "--per-day", "--mode", "individual",
                      "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert sorted(hashed) == ["#NUM_# literal", "disk full", "job #NUM_# done"]
    # Each day's file equals a report built without a shared key map.
    rules = loganon.default_ruleset(loganon.Mode.INDIVIDUAL)
    registry = loganon.SymbolRegistry()
    days = [UsefulnessAccumulator() for _ in range(3)]
    for ts, message in lines:
        _, significant, pattern = loganon.process_entry(message, rules, registry)
        days[ts // 86400].add(significant, pattern)
    for day, accumulator in enumerate(days):
        expected = "\n".join(accumulator.report("individual").csv_lines()) + "\n"
        assert (tmp_path / "out" / f"usefulness_d{day}.csv").read_text() == expected


def test_anonymize_hashes_each_pattern_once(tmp_path, capsys, monkeypatch):
    messages = ["job 17 done", "job 42 done", "job 17 done", "disk full", "job 99 done", "disk full"]
    corpus = tmp_path / "in.log"
    corpus.write_text("".join(f"{i} n {m}\n" for i, m in enumerate(messages)))
    hashed = []

    def counted(text, cfg):
        hashed.append(text)
        return hash_text(text, cfg)

    monkeypatch.setattr(loganon.encoder, "hash_text", counted)
    code, _, _ = run(["anonymize", str(corpus), "--mode", "individual", "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    # One hash per distinct message, and one per distinct pattern.
    rules = loganon.default_ruleset(loganon.Mode.INDIVIDUAL)
    registry = loganon.SymbolRegistry()
    rewritten = [loganon.process_entry(m, rules, registry) for m in dict.fromkeys(messages)]
    patterns = dict.fromkeys(pattern for _, _, pattern in rewritten)
    assert list(patterns) == ["job #NUM_# done", "disk full"]
    assert sorted(hashed) == sorted([deid for deid, _, _ in rewritten] + list(patterns))


# Two event patterns of the built-in ruleset whose 4-byte category keys are both d7e2b250.
COLLIDING_PATTERNS = ("event rihga happened", "event eqiga happened")


@pytest.mark.parametrize("per_day", [False, True])
def test_usefulness_collision_exits_like_anonymize(tmp_path, capsys, per_day):
    """Two patterns that share a category key end `usefulness` as they end `anonymize`."""
    assert hash_text(COLLIDING_PATTERNS[0]) == hash_text(COLLIDING_PATTERNS[1]) == "d7e2b250"
    corpus = tmp_path / "in.log"
    messages = (COLLIDING_PATTERNS[0], "disk full", COLLIDING_PATTERNS[1])
    corpus.write_text("".join(f"{day * 86400} n {m}\n" for day, m in enumerate(messages)))
    anonymized = run(["anonymize", str(corpus), "--out", str(tmp_path / "a")], capsys)
    flags = ["--per-day"] if per_day else []
    useful = run(["usefulness", str(corpus), *flags, "--out", str(tmp_path / "u")], capsys)
    assert anonymized[0] == useful[0] == 3
    assert useful[1] == ""  # no day's table is printed
    assert useful[2] == anonymized[2] == (
        f"error: key d7e2b250 maps to both {COLLIDING_PATTERNS[0]!r} and {COLLIDING_PATTERNS[1]!r}; "
        "increase the digest width and re-run (distinct keys so far: 2, width: 4 bytes; "
        "smallest --digest-bytes with a birthday estimate below 1e-6: 4)\n"
    )
    assert list((tmp_path / "u").iterdir()) == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_usefulness_slots_are_pattern_positions(tmp_path, capsys, workers):
    # Both lines have the pattern "#NUM_# #X_#". Each has one significant
    # value, 5, but at different positions: slot 0 holds it under #NUM_#
    # (first line) and slot 1 under #X_# (second line), so U = 1.
    rules = tmp_path / "two.rules"
    rules.write_text(
        "[rule X]\npattern = (?<=# )\\d\nsignificant = yes\n\n"
        "[rule NUM]\npattern = \\b\\d+\\b\nsignificant = yes\n"
    )
    corpus = tmp_path / "in.log"
    corpus.write_text("1 n 5 #X_#\n2 n #NUM_# 5\n")
    out_dir = tmp_path / "out"
    argv = ["usefulness", str(corpus), "--rules", str(rules), "--workers", workers, "--out", str(out_dir)]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    key = hash_text("#NUM_# #X_#")
    assert out.splitlines()[1:] == [
        f"{key:<12}        2   1.0000   1.0000   1.0000  #NUM_# #X_#",
        "usefulness (global): 1.0000 (exact 1/1) over 2 entries",
    ]
    csv_row = (out_dir / "usefulness.csv").read_text().splitlines()[1]
    assert csv_row == f"{key},#NUM_# #X_#,2,1.0000,1.0000,1.0000"


def test_usefulness_symbols_in_input_keep_slots_apart(tmp_path, capsys):
    # The built-in rules give both lines the pattern "#NUM_# #NUM_#"; each
    # position holds one value under one symbol.
    corpus = tmp_path / "in.log"
    corpus.write_text("1 n 5 #NUM_#\n2 n #NUM_# 6\n")
    code, out, err = run(["usefulness", str(corpus), "--out", str(tmp_path / "out")], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "usefulness (global): 1.0000 (exact 1/1) over 2 entries"


def test_usefulness_interrupt_leaves_no_output(tmp_path, monkeypatch):
    calls = []

    def interrupted(self, *args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real(self, *args)

    real = UsefulnessAccumulator.report
    monkeypatch.setattr(UsefulnessAccumulator, "report", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["usefulness", CRON_LOG, "--rules", CRON_RULES, "--per-day",
              "--epoch-day0", "1517270400", "--out", str(out)])
    assert len(calls) == 2
    assert list(out.iterdir()) == []


def test_usefulness_csv_keeps_line_separators_inside_fields(tmp_path, capsys):
    messages = ["hello\x0cworld", "a\u2028b"]
    corpus = tmp_path / "in.log"
    corpus.write_text("".join(f"{i} n {m}\n" for i, m in enumerate(messages)), encoding="utf-8")
    code, _, _ = run(["usefulness", str(corpus), "--out", str(tmp_path)], capsys)
    assert code == 0
    with open(tmp_path / "usefulness.csv", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert [len(row) for row in rows] == [6, 6, 6, 6]
    assert rows[0][1] == "pattern" and rows[-1][0] == "TOTAL"
    assert sorted(row[1] for row in rows[1:-1]) == sorted(messages)


def test_usefulness_table_escapes_unprintable_text(tmp_path, capsys):
    corpus = tmp_path / "in.log"
    corpus.write_text("1 n \x1b[31mred\tx\u2028y\n2 n café ünï 日本 \U0001F600\n", encoding="utf-8")
    code, out, _ = run(["usefulness", str(corpus), "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "\x1b" not in out and "\t" not in out and "\u2028" not in out
    assert "  \\x1b[31mred\\tx\\u2028y\n" in out
    assert "  café ünï 日本 \U0001F600\n" in out
    with open(tmp_path / "usefulness.csv", encoding="utf-8", newline="") as f:
        patterns = {row[1] for row in csv.reader(f)}
    assert {"\x1b[31mred\tx\u2028y", "café ünï 日本 \U0001F600"} <= patterns


def test_patterns_command(tmp_path, capsys):
    code, out, _ = run(
        ["patterns", CRON_LOG, "--rules", CRON_RULES, "--top", "1,6", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "coverage.csv").read_text().splitlines()
    assert lines[0] == "#Raw log entries,20"
    assert lines[1] == "#Event patterns,6"
    assert lines[3] == "1,50.00"
    assert lines[4] == "6,100.00"
    assert "1,50.00" in out


def test_patterns_interrupt_leaves_no_output(tmp_path, monkeypatch):
    real_open = open
    writes = []

    class InterruptedFile:
        """A file whose first write reaches the disk and then raises KeyboardInterrupt."""

        def __init__(self, *args, **kwargs):
            self.path = Path(args[0])
            self._file = real_open(*args, **kwargs)

        def write(self, text):
            self._file.write(text)
            self._file.flush()
            writes.append(self.path.read_text())
            raise KeyboardInterrupt

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._file.close()

    monkeypatch.setattr(cli, "open", InterruptedFile, raising=False)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["patterns", CRON_LOG, "--rules", CRON_RULES, "--out", str(out)])
    assert writes and writes[0].startswith("#Raw log entries,20\n")
    assert list(out.iterdir()) == []


def test_patterns_bad_top_list(tmp_path, capsys):
    for top in ("a,b", "0", "5,-1"):
        code, out, err = run(["patterns", CRON_LOG, "--top", top, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


# Rule files whose group table has no label for "guest" and no `*`: one
# through the ruleset mode, one through the rule's own override.
GROUP_TABLE_RULES = {
    "ruleset-mode": "[ruleset]\nmode = group\n\n[rule USER]\npattern = (?<=\\()[a-z]+(?=\\))\n"
                    "significant = yes\n\n[groups USER]\nroot = p\nadmin = p\n",
    "rule-override": "[rule USER]\npattern = (?<=\\()[a-z]+(?=\\))\nsignificant = yes\nmode = group\n\n"
                     "[groups USER]\nroot = p\nadmin = p\n",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(GROUP_TABLE_RULES))
def test_patterns_ignores_mode_and_group_tables(tmp_path, capsys, monkeypatch, case, workers):
    messages = [f"({'root' if i % 3 else 'admin'}) CMD (/bin/job{i % 7})" for i in range(300)]
    corpus = tmp_path / "in.log"
    corpus.write_text("".join(f"{i} n {m}\n" for i, m in enumerate([*messages, "(guest) CMD (/x)"])))
    rules = tmp_path / "group.rules"
    rules.write_text(GROUP_TABLE_RULES[case])
    plain_rules = tmp_path / "plain.rules"
    plain_rules.write_text("[rule USER]\npattern = (?<=\\()[a-z]+(?=\\))\nsignificant = yes\n")
    monkeypatch.setattr(loganon._stream, "BATCH_LINES", 16)
    monkeypatch.setattr(loganon._stream, "_usable_cpus", lambda: 2)

    def patterns(rule_file):
        out = tmp_path / f"out-{rule_file.stem}"
        code, stdout, err = run(["patterns", str(corpus), "--rules", str(rule_file),
                                 "--top", "1,8", "--workers", str(workers), "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        return stdout, (out / "coverage.csv").read_text()

    expected = patterns(plain_rules)
    assert expected[1].splitlines()[:2] == ["#Raw log entries,301", "#Event patterns,8"]
    assert patterns(rules) == expected


@pytest.mark.parametrize("flag", [["--mode", "global"], ["--digest-bytes", "8"]])
def test_patterns_rejects_the_flags_that_change_no_output(tmp_path, capsys, flag):
    out = tmp_path / "out"
    code, stdout, err = run(["patterns", CRON_LOG, *flag, "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: loganon ")
    assert err.endswith(f"\nloganon: error: unrecognized arguments: {' '.join(flag)}\n")
    assert not out.exists()


def test_compare_command(tmp_path, capsys):
    code, out, err = run(
        [
            "compare", CRON_LOG, "T-1020", "T-1022",
            "--epoch-day0", "1517270400", "--window", "0:240", "--format", "csv",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    for stem in (
        "T-1020_occurrence",
        "T-1022_occurrence",
        "T-1020-T-1022_similarity",
        "T-1020-T-1022_difference",
    ):
        assert (tmp_path / f"{stem}.csv").exists()
    sim = set((tmp_path / "T-1020-T-1022_similarity.csv").read_text().splitlines()[1:])
    diff = set((tmp_path / "T-1020-T-1022_difference.csv").read_text().splitlines()[1:])
    a = set((tmp_path / "T-1020_occurrence.csv").read_text().splitlines()[1:])
    b = set((tmp_path / "T-1022_occurrence.csv").read_text().splitlines()[1:])
    assert sim == a & b
    assert diff == a ^ b


def test_compare_memory_does_not_grow_with_the_lines(tmp_path, capsys):
    """compare keeps each node's occupied minutes, not its entries: 4x the lines, the same peak."""
    peaks = {}
    for scale in (1, 4):
        corpus = tmp_path / f"x{scale}.log"
        # One day, both nodes in every minute at either scale.
        corpus.write_text("".join(f"{i * 86400 // (5000 * scale)} n{i % 2} job {i} done\n"
                                  for i in range(5000 * scale)))
        tracemalloc.start()
        try:
            code, _, err = run(["compare", str(corpus), "n0", "n1", "--window", "0:1440",
                                "--out", str(tmp_path / f"out{scale}")], capsys)
            peaks[scale] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
    assert peaks[4] - peaks[1] < 1 << 20


def test_compare_help_documents_the_shared_input_flags(capsys):
    """compare takes inputs, --strict, --workers and --out with the help text of the other commands."""
    helps = {}
    for command in ("compare", "anonymize"):
        code, helps[command], _ = run([command, "-h"], capsys)
        assert code == 0
    for line in ("  inputs                input log files, or - for stdin\n",
                 "  --strict              abort on the first malformed line\n",
                 "  --out OUT             output directory\n"):
        assert line in helps["compare"]
        assert line in helps["anonymize"]


@pytest.mark.parametrize("fmt", ["csv", "pgm"])
def test_compare_reads_encoded_log_like_raw(tmp_path, capsys, fmt):
    # An encoded line keeps the raw timestamp and source, which are all a grid reads.
    code, _, _ = run(["anonymize", CRON_LOG, "--rules", CRON_RULES, "--out", str(tmp_path / "enc")], capsys)
    assert code == 0
    grids = {}
    for name, log in (("raw", CRON_LOG), ("encoded", str(tmp_path / "enc" / "encoded.log"))):
        out_dir = tmp_path / name
        argv = ["compare", log, "T-1020", "T-1022", "--epoch-day0", "1517270400",
                "--window", "0:240", "--format", fmt, "--out", str(out_dir)]
        assert run(argv, capsys)[::2] == (0, "")  # no warning: both nodes have entries
        grids[name] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(grids["raw"]) == 4
    assert grids["encoded"] == grids["raw"]


def test_compare_pgm_and_missing_node_warning(tmp_path, capsys):
    code, _, err = run(
        [
            "compare", CRON_LOG, "T-1020", "T-9999",
            "--epoch-day0", "1517270400", "--days", "0:1", "--format", "pgm",
            "--out", str(tmp_path),
        ],
        capsys,
    )
    assert code == 0
    assert "T-9999" in err
    header = (tmp_path / "T-1020_occurrence.pgm").read_text().splitlines()[:2]
    assert header == ["P2", "240 2"]


def test_compare_interrupt_leaves_no_output(tmp_path, monkeypatch):
    out = tmp_path / "out"
    staged = []

    def interrupted(grid, fmt, stream):
        staged.append(sorted(p.name for p in out.iterdir()))
        if len(staged) == 3:
            raise KeyboardInterrupt
        return real(grid, fmt, stream)

    real = cli.emit_grid
    monkeypatch.setattr(cli, "emit_grid", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["compare", CRON_LOG, "T-1020", "T-1022", "--epoch-day0", "1517270400",
              "--out", str(out)])
    assert staged[2] == [
        "T-1020-T-1022_similarity.csv.tmp", "T-1020_occurrence.csv.tmp", "T-1022_occurrence.csv.tmp",
    ]
    assert list(out.iterdir()) == []


def test_compare_failed_rename_leaves_no_output(tmp_path, capsys):
    corpus = tmp_path / "in.log"
    corpus.write_text("60 n001 a\n120 n002 b\n")
    out = tmp_path / "out"
    blocker = out / "n001-n002_similarity.csv"
    blocker.mkdir(parents=True)
    (blocker / "keep").write_text("")
    code, _, err = run(["compare", str(corpus), "n001", "n002", "--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert list(out.iterdir()) == [blocker]
    assert list(blocker.iterdir()) == [blocker / "keep"]


# Each command, and a file-size limit below the largest file it writes from the corpus below.
WRITE_LIMITS = {
    "anonymize-w1": (["anonymize", "--emit-dictionary", "--emit-meanings", "--workers", "1"], 200_000),
    "anonymize-w2": (["anonymize", "--workers", "2"], 200_000),
    "usefulness": (["usefulness", "--per-day"], 40_000),
    "patterns": (["patterns"], 40),
    "compare": (["compare", "n000", "n001"], 1_000),
}


@pytest.fixture(scope="module")
def write_corpus(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("write") / "cmd.log"
    assert main(["gen", "--entries", "10000", "--patterns", "2000", "--nodes", "4", "--days", "2",
                 "--style", "cmd", "--seed", "3", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("case", sorted(WRITE_LIMITS))
def test_failed_write_leaves_no_output(write_corpus, tmp_path, case):
    """A write refused by the file-size limit of the run's process exits 2 and leaves --out empty."""
    (command, *flags), limit = WRITE_LIMITS[case]
    out = tmp_path / "out"

    def limit_file_size():  # in the child only, never in this process
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "loganon", command, str(write_corpus), *flags, "--out", str(out)],
        env=child_env(), capture_output=True, text=True, check=False, preexec_fn=limit_file_size,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    assert proc.stdout == ""
    assert not out.exists() or list(out.iterdir()) == []


def test_compare_rejects_reversed_days(tmp_path, capsys):
    code, out, err = run(
        ["compare", CRON_LOG, "T-1020", "T-1022", "--days", "3:1", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert err == "error: --days must have FIRST <= LAST: 3:1\n"
    assert out == ""


def test_compare_checks_days_before_reading_input(tmp_path, capsys):
    corpus = tmp_path / "in.log"
    corpus.write_text("not a log line\n")
    code, out, err = run(
        ["compare", str(corpus), "n", "m", "--strict", "--days", "x", "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert err.startswith("error: bad --days value")
    assert out == ""


@pytest.mark.parametrize(
    "argv,message",
    [
        (["patterns", CRON_LOG, "--top", "x"], "bad --top list: 'x'"),
        (["patterns", CRON_LOG, "--top", ","], "--top must name at least one K"),
        (["anonymize", CRON_LOG, "--workers", "0"], "--workers must be >= 1"),
        (["compare", CRON_LOG, "T-1020", "T-1022", "--window", "9:3"],
         "--window must lie within [0, 1440): 9:3"),
        (["compare", CRON_LOG, "T-1020", "T-1022", "--days", "3:1"],
         "--days must have FIRST <= LAST: 3:1"),
        (["compare", CRON_LOG, "T-1020", "T-1020"], "compare needs two different nodes, got 'T-1020' twice"),
        # Node names become file names: these would write outside --out.
        (["compare", CRON_LOG, "../x", "T-1022"],
         "compare node names must not hold a path separator: '../x'"),
        (["compare", CRON_LOG, "T-1020", "a/b"],
         "compare node names must not hold a path separator: 'a/b'"),
        # A directory outside tmp_path, which must stay empty.
        (["anonymize", str(FIXTURES)], f"input is a directory: {FIXTURES}"),
        (["anonymize", CRON_LOG, "--rules", str(FIXTURES)], f"rule file is a directory: {FIXTURES}"),
        (["usefulness", CRON_LOG, "--rules", NOT_UTF8_RULES],
         f"rule file {NOT_UTF8_RULES} is not valid UTF-8: "
         "'utf-8' codec can't decode byte 0xff in position 24: invalid start byte"),
        (["anonymize", CRON_LOG, "--rules", MISSING_RULES], f"rule file not found: {MISSING_RULES}"),
        # A rule file path through a regular file.
        (["patterns", CRON_LOG, "--rules", f"{CRON_LOG}/x.rules"],
         f"cannot read rule file {CRON_LOG}/x.rules: Not a directory"),
        (["anonymize", CRON_LOG, "--rules", EMPTY_MATCH_RULES],
         "rule X: pattern must not match the empty string"),
    ],
    ids=["top", "top-empty", "workers", "window", "days", "same-node", "node-leaves-out",
         "node-in-subdirectory", "input-directory", "rules-directory", "rules-not-utf8", "rules-missing",
         "rules-not-a-directory", "rules-empty-match"],
)
def test_option_error_creates_no_out_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "made" / "deep"
    code, stdout, err = run([*argv, "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: {message}\n"
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "text,message",
    [
        ("pattern = x\n", "bad rule file {path}, line 1: text before the first section header"),
        ("siavash = n\n[rule USER]\npattern = x\n",
         "bad rule file {path}, line 1: text before the first section header"),
        ("[rule USER]\npattern = x\n\n[groups USER]\nsiavash n\n",
         "bad rule file {path}, line 5: not a section header, a key = value line or a comment"),
        ("[rule USER]\npattern = x\n\n[groups USER]\nsiavash = n\nsiavash = p\n",
         "bad rule file {path}, line 6: a key that repeats in its section"),
        ("[rule USER]\npattern = x\n[groups USER]\nsiavash = n\n[groups USER]\nroot = p\n",
         "bad rule file {path}, line 5: a section that repeats"),
        ("[rule X]\nsignificant = yes\n", "rule X: missing pattern"),
    ],
    ids=["no-section", "no-section-group-key", "no-delimiter", "repeated-key", "repeated-section", "no-pattern"],
)
def test_unloadable_rule_file_creates_no_out_directory(tmp_path, capsys, text, message):
    # One line that names the file and the line, and quotes none of the file.
    rules = tmp_path / "bad.rules"
    rules.write_text(text)
    out = tmp_path / "made" / "deep"
    code, stdout, err = run(["anonymize", CRON_LOG, "--rules", str(rules), "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"error: {message.format(path=rules)}\n"
    assert "siavash" not in err
    assert not (tmp_path / "made").exists()


@pytest.mark.parametrize("command", ["anonymize", *sorted(ANALYSIS_ARGV)])
def test_out_naming_a_file_rejected(tmp_path, capsys, command):
    not_a_dir = tmp_path / "taken"
    not_a_dir.write_text("")
    argv = [command, CRON_LOG, *ANALYSIS_ARGV.get(command, []), "--out", str(not_a_dir)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: cannot create output directory")
    assert out == ""


def test_gen_command_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "corpus.log"
    code, _, _ = run(
        ["gen", "--entries", "100", "--patterns", "7", "--seed", "5", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 100
    for line in lines:
        parse_line(line)


def test_gen_interrupt_leaves_no_output(tmp_path, monkeypatch):
    out_file = tmp_path / "corpus.log"
    staged = tmp_path / "corpus.log.tmp"

    def interrupted(spec):
        for i, line in enumerate(real(spec)):
            if i == 50:
                assert staged.exists()
                raise KeyboardInterrupt
            yield line

    real = cli.generate_lines
    monkeypatch.setattr(cli, "generate_lines", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["gen", "--entries", "100", "--patterns", "7", "--out", str(out_file)])
    assert list(tmp_path.iterdir()) == []


def test_gen_out_naming_a_directory_rejected(tmp_path, capsys):
    code, out, err = run(["gen", "--entries", "3", "--patterns", "2", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "parent_is_file,reason",
    [(False, "[Errno 2] No such file or directory"), (True, "[Errno 20] Not a directory")],
    ids=["missing", "file"],
)
def test_gen_out_under_a_non_directory_names_the_parent(tmp_path, capsys, parent_is_file, reason):
    parent = tmp_path / "nodir"
    if parent_is_file:
        parent.write_text("")
    code, out, err = run(["gen", "--entries", "3", "--patterns", "2", "--out", str(parent / "x.log")], capsys)
    assert code == 2
    assert err == f"error: {reason}: '{parent}'\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == ([parent] if parent_is_file else [])


@pytest.mark.parametrize(
    "bad",
    [
        ["--entries", "0"],
        ["--patterns", "0"],
        ["--nodes", "0"],
        ["--days", "0"],
        ["--style", "cmd", "--users", "0"],
        ["--zipf-s", "nan"],
    ],
    ids="-".join,
)
def test_gen_bad_option_exits_config(tmp_path, capsys, bad):
    out_file = tmp_path / "corpus.log"
    argv = ["gen", "--entries", "5", "--patterns", "3", *bad, "--out", str(out_file)]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_gen_to_stdout(capsys):
    code, out, _ = run(["gen", "--entries", "3", "--patterns", "2", "--seed", "1"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


def test_gen_to_closed_stdout_exits_141_quietly():
    # `loganon gen ... | head -1`: the reader leaves after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "loganon", "gen", "--entries", "200000", "--patterns", "10",
         "--out", "-"],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert err == b""


def test_stdin_input(tmp_path):
    # end-to-end through a real process so '-' reads actual stdin
    proc = subprocess.run(
        [sys.executable, "-m", "loganon", "anonymize", "-", "--out", str(tmp_path)],
        input="10 n hello world\n",
        env=child_env(),
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert len((tmp_path / "encoded.log").read_text().splitlines()) == 1


def test_no_command_exits_config(capsys):
    assert main([]) == 2


def test_workers_flag_matches_sequential(tmp_path, capsys):
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    code, stdout1, _ = run(
        ["anonymize", CRON_LOG, "--rules", CRON_RULES, "--mode", "individual",
         "--emit-dictionary", "--workers", "1", "--out", str(out1)], capsys)
    assert code == 0
    code, stdout2, _ = run(
        ["anonymize", CRON_LOG, "--rules", CRON_RULES, "--mode", "individual",
         "--emit-dictionary", "--workers", "3", "--out", str(out2)], capsys)
    assert code == 0
    assert (out1 / "encoded.log").read_bytes() == (out2 / "encoded.log").read_bytes()
    assert (out1 / "dictionary.tsv").read_bytes() == (out2 / "dictionary.tsv").read_bytes()
    assert stdout1.replace(str(out1), "") == stdout2.replace(str(out2), "")


# Inputs that fail in the reduce after many good lines: a hash collision
# (exit 3) and a value the group table does not cover (exit 2).
REDUCE_FAILURES = {
    "collision": (
        [f"filler message {i}" for i in range(300)] + [*COLLIDING_MESSAGES],
        "[ruleset]\nmode = global\n\n[rule F]\npattern = filler\n",
        3,
    ),
    "group-map-incomplete": (
        [f"({'root' if i % 3 else 'admin'}) CMD (/bin/job{i})" for i in range(300)] + ["(guest) CMD (/x)"],
        GROUP_TABLE_RULES["ruleset-mode"],
        2,
    ),
}


@pytest.mark.parametrize("failure", sorted(REDUCE_FAILURES))
def test_reduce_errors_identical_at_one_and_two_workers(tmp_path, capsys, monkeypatch, failure):
    messages, rule_text, exit_code = REDUCE_FAILURES[failure]
    corpus = tmp_path / "bad.log"
    corpus.write_text("".join(f"{i} n{i % 4} {m}\n" for i, m in enumerate(messages)))
    rules = tmp_path / "bad.rules"
    rules.write_text(rule_text)
    # Small batches, so the failing line arrives while the pool is still busy,
    # and a real pool of two even where this process may use one CPU.
    monkeypatch.setattr(loganon._stream, "BATCH_LINES", 16)
    monkeypatch.setattr(loganon._stream, "_usable_cpus", lambda: 2)
    results = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        results[workers] = run(["anonymize", str(corpus), "--rules", str(rules), "--emit-dictionary",
                                "--workers", str(workers), "--out", str(out)], capsys)
        assert results[workers][0] == exit_code
        assert list(out.iterdir()) == []
    assert results[1] == results[2]
    assert results[1][2].startswith("error: ")
    if failure == "group-map-incomplete":
        assert results[1][2] == "error: line 301: rule USER: a value has no group label and no '*' default\n"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["anonymize", "usefulness --per-day"])
def test_group_map_error_names_its_line_across_inputs_and_skipped_lines(tmp_path, capsys, monkeypatch,
                                                                        command, workers):
    """Lines are numbered across the inputs, skipped malformed lines included; the value is not shown."""
    first = tmp_path / "a.log"
    first.write_text("".join(f"{i} n (root) CMD (/bin/job{i})\n" for i in range(20)) + "malformed\n")
    second = tmp_path / "b.log"
    second.write_text("30 n (admin) CMD (/x)\n31 n (guest) CMD (/y)\n32 n (nobody) CMD (/z)\n")
    rules = tmp_path / "group.rules"
    rules.write_text(GROUP_TABLE_RULES["ruleset-mode"])
    monkeypatch.setattr(loganon._stream, "BATCH_LINES", 4)
    monkeypatch.setattr(loganon._stream, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    name, *flags = command.split()
    code, stdout, err = run([name, str(first), str(second), *flags, "--rules", str(rules),
                             "--workers", str(workers), "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == "error: line 23: rule USER: a value has no group label and no '*' default\n"
    assert list(out.iterdir()) == []


# Runs that stop on one input line: (command and flags, the line, rule file or None,
# exit code, the values of the line that the error must not show).
LEAKING_RUNS = {
    "fewer-fields": (["patterns", "--strict"], "secret-password-line", None, 4, ["secret", "password"]),
    "timestamp": (["anonymize", "--strict"], "t0ken42 n msg", None, 4, ["t0ken42"]),
    "source": (["usefulness", "--strict"], "5 host\tsecretnode msg", None, 4, ["host", "secretnode"]),
    "group-map": (["anonymize"], "5 n (alice) CMD (/x)", GROUP_TABLE_RULES["ruleset-mode"], 2, ["alice"]),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(LEAKING_RUNS))
def test_errors_show_no_input_value(tmp_path, capsys, monkeypatch, case, workers):
    command, line, rule_text, exit_code, values = LEAKING_RUNS[case]
    corpus = tmp_path / "in.log"
    corpus.write_text("".join(f"{i} n (root) CMD (/bin/job{i})\n" for i in range(40)) + line + "\n")
    argv = [command[0], str(corpus), *command[1:], "--workers", str(workers), "--out", str(tmp_path / "out")]
    if rule_text is not None:
        (tmp_path / "case.rules").write_text(rule_text)
        argv += ["--rules", str(tmp_path / "case.rules")]
    monkeypatch.setattr(loganon._stream, "BATCH_LINES", 16)
    monkeypatch.setattr(loganon._stream, "_usable_cpus", lambda: 2)
    code, _, err = run(argv, capsys)
    assert code == exit_code
    assert err.startswith("error: ")
    assert [value for value in values if value in err] == []


# How a run ends on each signal: (exit code as Popen reports it, what stderr ends with).
SIGNAL_EXITS = {
    signal.SIGINT: (-signal.SIGINT, b"KeyboardInterrupt"),
    signal.SIGTERM: (143, b""),
}


def default_sigint() -> None:
    """Give a child the default SIGINT action: one started with SIGINT ignored would keep ignoring it.

    A test run started with SIGINT ignored, as a job started with & from a
    script is, passes that on to every child, and loganon keeps an ignored
    signal ignored.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def worker_pool_run(tmp_path, interrupt, timeout):
    """Run `anonymize --workers 2` in a process group of its own and call ``interrupt(proc)``
    once it writes; give it ``timeout`` seconds to end, check that it leaves --out empty and
    no process of its group behind, and return its exit code and stderr."""
    corpus = tmp_path / "cmd.log"
    assert main(["gen", "--entries", "50000", "--patterns", "20000", "--users", "300",
                 "--style", "cmd", "--seed", "3", "--out", str(corpus)]) == 0
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "loganon", "anonymize", str(corpus), "--workers", "2",
         "--mode", "individual", "--digest-bytes", "8", "--emit-dictionary", "--emit-meanings",
         "--out", str(out)],
        env=child_env(), start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=default_sigint,
    )
    try:
        staged = out / "encoded.log.tmp"
        deadline = time.monotonic() + 30
        while not (staged.exists() and staged.stat().st_size > 0):
            assert proc.poll() is None, "the run ended before it was interrupted"
            assert time.monotonic() < deadline, "encoded.log.tmp stayed empty"
            time.sleep(0.002)
        interrupt(proc)
        _, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert list(out.iterdir()) == []
    deadline = time.monotonic() + 30
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a process of the group outlived the run"
        time.sleep(0.01)
    return proc.returncode, err


def signal_worker_pool_run(tmp_path, signum, times):
    """Send ``signum`` ``times`` times, 20 ms apart, to the process group of
    `anonymize --workers 2` while it writes; check its exit and that nothing is left."""
    exit_code, err_tail = SIGNAL_EXITS[signum]

    def interrupt(proc):
        for i in range(times):
            if i:
                time.sleep(0.02)
            try:
                os.killpg(proc.pid, signum)
            except ProcessLookupError:  # the run already ended
                break

    code, err = worker_pool_run(tmp_path, interrupt, 30)
    assert code == exit_code
    assert err.rstrip().endswith(err_tail)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_ctrl_c_with_worker_pool_leaves_no_output(tmp_path):
    """A real SIGINT to the process group of `anonymize --workers 2` while it writes."""
    signal_worker_pool_run(tmp_path, signal.SIGINT, 1)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("name, times", [("SIGINT", 2), ("SIGTERM", 1), ("SIGTERM", 2)])
def test_group_signal_with_worker_pool_leaves_no_output(tmp_path, name, times):
    """The workers get a group-wide signal too.

    They must finish their batches, not die with them: the pool never notices a lost
    batch, and its join() would wait for it forever. A second signal, 20 ms later, lands
    while the parent waits for them and must be ignored: cut short, that wait ends in the
    pool's terminate(), which cannot end workers that ignore SIGTERM.
    """
    signal_worker_pool_run(tmp_path, getattr(signal, name), times)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.skipif(loganon._stream._usable_cpus() < 2, reason="a worker pool needs 2 CPUs")
@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/PID/task/TID/children to find the workers")
def test_killed_worker_ends_the_run_with_its_exit_code(tmp_path):
    """SIGKILL to one scan worker: the run exits 5 within 10 s and leaves nothing behind."""

    def kill_a_worker(proc):
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text().split()
        assert len(children) == 2, children
        os.kill(int(children[0]), signal.SIGKILL)

    code, err = worker_pool_run(tmp_path, kill_a_worker, 10)
    assert code == cli.EXIT_WORKER == 5
    assert err.startswith(b"error: scan worker "), err


def handlers_during_gen(monkeypatch, tmp_path):
    """The SIGINT and SIGTERM handlers while `gen` runs, and its exit code."""
    seen = {}
    generate_lines = cli.generate_lines

    def spy(spec):
        seen.update({sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)})
        return generate_lines(spec)

    monkeypatch.setattr(cli, "generate_lines", spy)
    code = main(["gen", "--entries", "3", "--patterns", "2", "--out", str(tmp_path / "g.log")])
    return seen, code


def test_main_off_the_main_thread_leaves_signals_alone(tmp_path, monkeypatch):
    """Only the main thread may set a signal handler; main() elsewhere runs without one."""
    before = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    result = []
    thread = threading.Thread(
        target=lambda: result.append(handlers_during_gen(monkeypatch, tmp_path))
    )
    thread.start()
    thread.join()
    assert result == [(before, 0)]


def test_main_keeps_an_ignored_signal_ignored(tmp_path, monkeypatch):
    """A run started with SIGINT ignored (a background job of a script) stays deaf to it."""
    previous = signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        seen, code = handlers_during_gen(monkeypatch, tmp_path)
        assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    finally:
        signal.signal(signal.SIGINT, previous)
    assert code == 0
    assert seen == {signal.SIGINT: signal.SIG_IGN, signal.SIGTERM: cli._interrupt}


def signal_open_stdin_run(tmp_path, workers, signum, close_stdin):
    """Signal `anonymize -` once it has staged its output, with its input pipe still open.

    With ``close_stdin`` the pipe is closed after the signal and the run gets
    30 s to end. Without it the signal comes 0.5 s after the output is staged,
    once a worker pool has had time to start reading, and the run gets 10 s
    with the pipe still open. Returns the exit code, stderr and the --out
    directory.
    """
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "loganon", "anonymize", "-", "--workers", str(workers),
         "--out", str(out)],
        env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=default_sigint,
    )
    try:
        proc.stdin.write(b"10 n hello world\n")
        proc.stdin.flush()
        deadline = time.monotonic() + 30
        while not (out / "encoded.log.tmp").exists():
            assert proc.poll() is None, "the run ended before it was signalled"
            assert time.monotonic() < deadline, "encoded.log.tmp never appeared"
            time.sleep(0.002)
        if not close_stdin:
            time.sleep(0.5)
        proc.send_signal(signum)
        if not close_stdin:
            proc.wait(timeout=10)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    return proc.returncode, err, out


@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_with_open_stdin_leaves_no_output(tmp_path, workers):
    """SIGTERM while `anonymize -` waits on a pipe that is still open: exit 143, empty --out."""
    code, err, out = signal_open_stdin_run(tmp_path, workers, signal.SIGTERM, close_stdin=True)
    assert code == 143
    assert err == b""
    assert list(out.iterdir()) == []


@pytest.mark.skipif(loganon._stream._usable_cpus() < 2, reason="a worker pool needs 2 CPUs")
@pytest.mark.parametrize("name", ["SIGINT", "SIGTERM"])
def test_signal_with_open_stdin_and_worker_pool_exits_at_once(tmp_path, name):
    """No pool thread reads the input, so a signal ends the run while the pipe is still open."""
    signum = getattr(signal, name)
    exit_code, err_tail = SIGNAL_EXITS[signum]
    code, err, out = signal_open_stdin_run(tmp_path, 2, signum, close_stdin=False)
    assert code == exit_code
    assert err.rstrip().endswith(err_tail)
    assert list(out.iterdir()) == []
