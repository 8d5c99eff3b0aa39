"""numpy is loaded only by `gen`: every other command runs without it.

The scan workers are forked with os.fork, so no command loads multiprocessing.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, child_env
from loganon.synth import CorpusSpec, generate_lines


def _fresh_python(code: str, cwd: Path) -> str:
    """Run ``code`` in a new interpreter that imports loganon from this tree; return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_analysis_commands_do_not_import_numpy(tmp_path):
    log, rules = FIXTURES / "cron_sample.log", FIXTURES / "cron_sample.rules"
    out = _fresh_python(
        "import sys\n"
        "import loganon\n"
        "from loganon import cli\n"
        f"assert cli.main(['patterns', {str(log)!r}, '--rules', {str(rules)!r}, '--out', 'p']) == 0\n"
        f"assert cli.main(['compare', {str(log)!r}, 'T-1020', 'T-1022', '--epoch-day0', '1517270400',"
        " '--format', 'pgm', '--out', 'c']) == 0\n"
        "print('numpy' in sys.modules)\n",
        tmp_path,
    )
    assert out.splitlines()[-1] == "False"


def test_cli_does_not_import_multiprocessing(tmp_path):
    log = FIXTURES / "cron_sample.log"
    out = _fresh_python(
        "import sys\n"
        "from loganon import cli\n"
        f"assert cli.main(['anonymize', {str(log)!r}, '--workers', '2', '--out', 'a']) == 0\n"
        "print(sorted(name for name in sys.modules if name.startswith('multiprocessing')))\n",
        tmp_path,
    )
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("style", ["plain", "cmd"])
def test_gen_imports_numpy_and_keeps_its_bytes(tmp_path, style):
    out = _fresh_python(
        "import sys\n"
        "from loganon import cli\n"
        "assert cli.main(['gen', '--entries', '300', '--patterns', '40', '--seed', '9',"
        f" '--style', {style!r}, '--out', 'corpus.log']) == 0\n"
        "print('numpy' in sys.modules)\n",
        tmp_path,
    )
    assert out.splitlines()[-1] == "True"
    spec = CorpusSpec(entries=300, patterns=40, seed=9, style=style)
    expected = "".join(line + "\n" for line in generate_lines(spec)).encode("utf-8")
    assert (tmp_path / "corpus.log").read_bytes() == expected


@pytest.mark.parametrize("out", ["corpus.log", "-"])
def test_gen_without_numpy_exits_config(tmp_path, out):
    stdout = _fresh_python(
        "import contextlib, io, sys\n"
        "sys.modules['numpy'] = None\n"
        "from loganon import cli\n"
        "err, shown = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stderr(err), contextlib.redirect_stdout(shown):\n"
        "    code = cli.main(['gen', '--entries', '30', '--patterns', '4', '--out', %r])\n"
        "print(code, shown.getvalue() == '')\n"
        "print(err.getvalue(), end='')\n" % out,
        tmp_path,
    )
    assert stdout.splitlines() == ["2 True", "error: gen needs numpy: pip install 'loganon[gen]'"]
    assert list(tmp_path.iterdir()) == []
