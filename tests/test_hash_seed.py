"""No output depends on Python's string hash seed.

Each command runs in a child interpreter under PYTHONHASHSEED 0 and 12345,
at --workers 1 and 2; its stdout and every file it writes must be
byte-identical across the two seeds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from loganon.cli import main

# Runs the i-th argv of a JSON list with --out i/files and stdout to i/stdout;
# relative, so the paths the commands print are the same for both seeds.
DRIVER = """
import contextlib, json, os, sys
from loganon.cli import main
for i, argv in enumerate(json.loads(sys.argv[1])):
    os.mkdir(str(i))
    with open(f"{i}/stdout", "w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
        print("exit", main([*argv, "--out", f"{i}/files"]))
"""


def commands(corpus: str, workers: int) -> list[list[str]]:
    w = ["--workers", str(workers)]
    emit = ["--emit-dictionary", "--emit-meanings"]
    return [
        *(["anonymize", corpus, "--mode", mode, *emit, *w] for mode in ("individual", "group", "global")),
        ["usefulness", corpus, "--mode", "individual", "--per-day", *w],
        ["patterns", corpus, *w],
        *(["compare", corpus, "n000", "n001", "--format", fmt, *w] for fmt in ("csv", "pgm")),
    ]


def tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("workers", [1, 2])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, workers):
    corpus = str(tmp_path / "cmd.log")
    gen = ["gen", "--entries", "3000", "--patterns", "60", "--style", "cmd", "--nodes", "2", "--days", "3"]
    assert main([*gen, "--seed", "35", "--out", corpus]) == 0
    argvs = json.dumps(commands(corpus, workers))
    outputs = []
    for seed in ("0", "12345"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        env = dict(child_env(), PYTHONHASHSEED=seed)
        subprocess.run([sys.executable, "-c", DRIVER, argvs], cwd=out, env=env, check=True, timeout=120)
        outputs.append(tree(out))
    stdouts = [text for name, text in outputs[0].items() if name.endswith("stdout")]
    assert len(stdouts) == 7 and all(text.endswith(b"exit 0\n") for text in stdouts)
    assert outputs[0] == outputs[1]
