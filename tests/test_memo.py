"""The per-run message memos of `anonymize` and the shared scan stage.

Both memos must be invisible in the outputs: every file equals a
memo-free reference loop, whatever the cap, the worker count or what an
earlier run in the same process left behind.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from loganon import Mode, SymbolRegistry, hash_text, load_rules, process_entry
from loganon import _stream, cli, encoder
from loganon.cli import main
from loganon.rules import default_ruleset

from conftest import anonymize_reference, child_env
from test_cli import COLLIDING_MESSAGES

CORPUS_LINES = 600
SMALL_CAP = 16
OUTPUTS = ("encoded.log", "dictionary.tsv", "meanings.tsv")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    """A cmd corpus with repeats and far more distinct messages than SMALL_CAP."""
    path = tmp_path_factory.mktemp("memo") / "corpus.log"
    assert main([
        "gen", "--entries", str(CORPUS_LINES), "--patterns", "40", "--users", "12",
        "--style", "cmd", "--seed", "5", "--out", str(path),
    ]) == 0
    return path


# The built-in ruleset in group mode, plus a group table for USER.
GROUP_RULES = r"""[ruleset]
mode = group

[rule DAEM]
pattern = \b(?:0anacron|rsyslogd|anacron|systemd|postfix|polkitd|audispd|munged|slurmd|crond|sshd|sudo|ntpd|dbus)\b
significant = yes

[rule IPv4]
pattern = \d(?<=\b\d)\d{0,2}\.(?:\d{1,3}\.){2}\d{1,3}\b
significant = no

[rule TIME]
pattern = \b\d{4}-\d{2}-\d{2}(?:[ T]\d{2}:\d{2}(?::\d{2})?)?\b
significant = no

[rule USER]
pattern = (?<=[( ])[A-Za-z](?:(?<=\([A-Za-z])[\w.-]*(?=\) (?:CMD|cmd) \()|(?<=\bfor [A-Za-z])[\w.-]*$)
significant = yes

[rule PATH]
pattern = /[^\s()]+
significant = no

[rule NUM]
pattern = \d(?<=\b\d)\d*\b
significant = yes

[groups USER]
user001 = p
user002 = p
* = n
"""


@pytest.fixture(scope="module")
def group_rules(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("rules") / "group.rules"
    path.write_text(GROUP_RULES, encoding="utf-8")
    loaded, builtin = load_rules(path).rules, default_ruleset().rules
    assert [(r.name, r.pattern.pattern, r.significant) for r in loaded] == [
        (r.name, r.pattern.pattern, r.significant) for r in builtin
    ]
    return path


def reference_outputs(corpus: Path, rules_path: Path | None, mode: str) -> dict[str, bytes]:
    """The output files, and the storage report on stdout, from the memo-free reference."""
    ruleset = (load_rules(rules_path) if rules_path else default_ruleset()).with_mode(Mode(mode))
    rows = anonymize_reference(corpus.read_text(encoding="utf-8").splitlines(), ruleset)
    return {name: "".join(row + "\n" for row in lines).encode() for name, lines in rows.items()}


def anonymize_argv(corpus: Path, rules_path: Path | None, mode: str, workers: int, out: Path):
    argv = ["anonymize", str(corpus), "--mode", mode, "--workers", str(workers),
            "--emit-dictionary", "--emit-meanings", "--out", str(out)]
    return argv + (["--rules", str(rules_path)] if rules_path else [])


def read_outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUTS}


@pytest.mark.parametrize("cap", [SMALL_CAP, _stream.MEMO_ENTRIES])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("mode", ["global", "group", "individual"])
def test_anonymize_equals_memo_free_reference(
    corpus, group_rules, tmp_path, capsys, monkeypatch, mode, workers, cap
):
    monkeypatch.setattr(_stream, "MEMO_ENTRIES", cap)
    rules_path = group_rules if mode == "group" else None
    assert main(anonymize_argv(corpus, rules_path, mode, workers, tmp_path)) == 0
    # stdout opens with the six lines of the storage report.
    report = capsys.readouterr().out.splitlines(keepends=True)[:6]
    outputs = {**read_outputs(tmp_path), "storage report": "".join(report).encode()}
    assert outputs == reference_outputs(corpus, rules_path, mode)


def test_memo_skips_repeated_messages_and_respects_cap(corpus, tmp_path, capsys, monkeypatch):
    lines = corpus.read_text(encoding="utf-8").splitlines()
    messages = [line.split(" ", 2)[2] for line in lines]
    assert SMALL_CAP < len(set(messages)) < len(messages)
    calls = {"scan": 0, "rewrite": 0, "register": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_scan_batch = _stream.scan_batch

    def scan_batch(messages, ruleset):
        calls["scan"] += len(messages)
        return real_scan_batch(messages, ruleset)

    monkeypatch.setattr(_stream, "scan_batch", scan_batch)
    monkeypatch.setattr(cli, "rewrite_matches", counting("rewrite", cli.rewrite_matches))
    monkeypatch.setattr(encoder, "register", counting("register", encoder.register))
    monkeypatch.setattr(_stream, "MEMO_ENTRIES", SMALL_CAP)
    monkeypatch.setattr(_stream, "BATCH_LINES", 50)
    assert main(["anonymize", str(corpus), "--mode", "individual", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # The first SMALL_CAP distinct messages are computed once; every other line is computed.
    # A computed line registers its message's key; a memo hit registers nothing. Each
    # distinct pattern's key is registered once.
    admitted = set(list(dict.fromkeys(messages))[:SMALL_CAP])
    expected = len(admitted) + sum(1 for m in messages if m not in admitted)
    rules = default_ruleset(Mode.INDIVIDUAL)
    patterns = {process_entry(m, rules, SymbolRegistry())[2] for m in messages}
    # The scan stage scans each batch's distinct memo misses once, then admits them.
    scan_memo: list[str] = []
    scans = 0
    for i in range(0, len(messages), 50):
        misses = [m for m in dict.fromkeys(messages[i:i + 50]) if m not in scan_memo]
        scans += len(misses)
        scan_memo.extend(misses[:SMALL_CAP - len(scan_memo)])
    assert set(scan_memo) == admitted
    assert scans < expected
    assert calls == {"scan": scans, "rewrite": expected, "register": expected + len(patterns)}


def test_runs_in_one_process_equal_fresh_runs(corpus, tmp_path, capsys):
    other_rules = tmp_path / "other.rules"
    other_rules.write_text(
        "[ruleset]\nmode = individual\n\n[rule SVC]\npattern = svc\\d+\nsignificant = yes\n",
        encoding="utf-8",
    )
    runs = [(None, "individual"), (other_rules, "individual"), (None, "global")]
    for i, (rules_path, mode) in enumerate(runs):
        out = tmp_path / f"in-process{i}"
        assert main(anonymize_argv(corpus, rules_path, mode, 1, out)) == 0
    in_process = capsys.readouterr().out
    for i, (rules_path, mode) in enumerate(runs):
        fresh = tmp_path / f"fresh{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "loganon", *anonymize_argv(corpus, rules_path, mode, 1, fresh)],
            env=child_env(), capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert read_outputs(tmp_path / f"in-process{i}") == read_outputs(fresh)
        assert proc.stdout.replace(str(fresh), str(tmp_path / f"in-process{i}")) in in_process


@pytest.mark.parametrize("first_early", [True, False])
@pytest.mark.parametrize("workers", [1, 2])
def test_collision_after_memo_is_full_exits_3(tmp_path, capsys, monkeypatch, workers, first_early):
    first, second = COLLIDING_MESSAGES
    filler = [f"filler message {i}" for i in range(3 * SMALL_CAP)]
    messages = [first, *filler, first, second] if first_early else [*filler, first, first, second]
    corpus = tmp_path / "bad.log"
    corpus.write_text("".join(f"{i} n {m}\n" for i, m in enumerate(messages)))
    # A rule that rewrites the filler only, so the scan memo is in use too.
    rules = tmp_path / "filler.rules"
    rules.write_text("[ruleset]\nmode = global\n\n[rule F]\npattern = filler\n")
    monkeypatch.setattr(_stream, "MEMO_ENTRIES", SMALL_CAP)
    errors = {}
    for n in (workers, 3 - workers):  # this worker count, then the other one
        code = main(["anonymize", str(corpus), "--rules", str(rules),
                     "--workers", str(n), "--out", str(tmp_path / f"w{n}")])
        assert code == 3
        errors[n] = capsys.readouterr().err
    assert errors[1] == errors[2]
    assert errors[1].startswith(f"error: key {hash_text(first)} maps to both {first!r} and {second!r};")
