"""Every key a run writes is its text's SHAKE-128 digest at --digest-bytes.

The oracle is hashlib.shake_128 itself, not loganon's encoder. The event
pattern of each input line comes from process_entry; the keys, the meanings
and the storage report come from the command line.
"""

from __future__ import annotations

import csv
import hashlib

import pytest

from conftest import FIXTURES
from loganon import default_ruleset, load_rules, parse_line, process_entry
from loganon.cli import main


def digest(text: str, width: int) -> str:
    return hashlib.shake_128(text.encode("utf-8")).hexdigest(width)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """(input file, --rules arguments, ruleset) for the cron fixture and a cmd-style gen corpus."""
    gen = tmp_path_factory.mktemp("width") / "cmd.log"
    argv = ["gen", "--entries", "1500", "--patterns", "60", "--style", "cmd", "--seed", "35", "--out", str(gen)]
    assert main(argv) == 0
    cron_rules = FIXTURES / "cron_sample.rules"
    return [
        (FIXTURES / "cron_sample.log", ["--rules", str(cron_rules)], load_rules(cron_rules)),
        (gen, [], default_ruleset()),
    ]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("width", [4, 5, 16, 32])
def test_keys_are_digests_at_the_width(corpora, tmp_path, capsys, width, workers):
    for i, (log, rule_args, ruleset) in enumerate(corpora):
        common = [str(log), *rule_args, "--digest-bytes", str(width), "--workers", str(workers)]
        anon, useful = tmp_path / f"anon{i}", tmp_path / f"useful{i}"
        assert main(["anonymize", *common, "--emit-dictionary", "--emit-meanings", "--out", str(anon)]) == 0
        report = capsys.readouterr().out.splitlines()
        assert main(["usefulness", *common, "--out", str(useful)]) == 0
        capsys.readouterr()

        meanings = dict(
            line.split("\t", 1) for line in (anon / "meanings.tsv").read_text(encoding="utf-8").splitlines()
        )
        assert meanings and all(key == digest(text, width) for key, text in meanings.items())

        messages = [parse_line(line)[2] for line in log.read_text(encoding="utf-8").splitlines()]
        encoded = (anon / "encoded.log").read_text(encoding="utf-8").splitlines()
        assert len(encoded) == len(messages)
        for line, message in zip(encoded, messages):
            _, _, hash_key, category_key = line.split(" ")
            assert hash_key in meanings
            assert category_key == digest(process_entry(message, ruleset)[2], width)

        with open(useful / "usefulness.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))[1:-1]
        assert rows and all(row[0] == digest(row[1], width) for row in rows)

        assert report[0] == f"entries: {len(messages)}"
        assert report[2] == f"encoded message bytes: {len(messages) * (4 * width + 1)}"
