"""The README's Library examples run as written against the cron fixture."""

from __future__ import annotations

import re
import shutil
from fractions import Fraction
from pathlib import Path

from conftest import FIXTURES

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    """The python code blocks of the README's Library section, in order."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_examples_run(tmp_path, monkeypatch, capsys):
    first, *rest = library_blocks()
    (storage,) = [block for block in rest if "StorageTally(" in block]
    shutil.copy(FIXTURES / "cron_sample.log", tmp_path / "syslog.txt")
    shutil.copy(FIXTURES / "cron_sample.rules", tmp_path / "rules.ini")
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(first, namespace)
    exec(storage, namespace)
    out = capsys.readouterr().out.splitlines()
    # Group mode on the cron fixture; the storage block counts the last entry.
    assert namespace["report"].value == Fraction(47, 60)
    assert out[0] == "47/60"
    assert out[1:4] == ["entries: 1", f"raw message bytes: {len(namespace['message'].encode())}",
                        "encoded message bytes: 17"]
    assert len(out) == 7
