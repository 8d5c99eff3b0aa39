"""perfbench/traced.py runs every workload on a small corpus and changes no output.

The tracer rebinds loganon functions and methods by name before it calls
`cli.main`; a renamed or removed name breaks it. Each workload runs here
on a 300-line `gen` corpus, traced in a subprocess and untraced in
process, and the two runs must write the same bytes. The layers that
read 0 are pinned per workload: a layer the command loop stops calling
(or calls under another name) reads 0 and fails here, instead of
leaving its benchmark metric silently empty.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from loganon.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACED = PERFBENCH / "traced.py"


def _perfbench_workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


WORKLOADS = _perfbench_workloads()

# No command renders a raw entry, so model.render_s reads 0 everywhere. The
# tracer times rules.scan_s in _stream.scan_message, which a ruleset's batch
# scan (rules.scan_batch) calls only for a message a candidate straddles, so
# it reads 0 in every workload but compare-cmd, whose empty ruleset scans
# each line with scan_message.
_ANONYMIZE_IDLE = {
    "model.render_s", "grids.build_s", "grids.emit_s", "rules.scan_s",
    "usefulness.add_s", "usefulness.coverage_s", "usefulness.report_s",
}
IDLE_LAYERS = {
    "anon-plain-global": _ANONYMIZE_IDLE,
    "anon-cmd-individual": _ANONYMIZE_IDLE,
    "anon-cmd-individual-w2": _ANONYMIZE_IDLE,
    "usefulness-cmd": {
        "model.render_s", "encoder.encode_s", "encoder.tally_s",
        "grids.build_s", "grids.emit_s", "rules.scan_s", "usefulness.coverage_s",
    },
    "patterns-cmd": {
        "model.render_s", "encoder.encode_s", "encoder.tally_s", "grids.build_s", "grids.emit_s",
        "rules.scan_s", "usefulness.add_s", "usefulness.report_s",
    },
    "compare-cmd": {
        "model.render_s", "encoder.encode_s", "encoder.tally_s", "rules.rewrite_s",
        "usefulness.add_s", "usefulness.coverage_s", "usefulness.report_s",
    },
}


def _layers() -> tuple[str, ...]:
    """traced.LAYERS, read from the source: importing the script would set up its tracer."""
    for node in ast.parse(TRACED.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("LAYERS not found in traced.py")


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> dict[str, Path]:
    out = tmp_path_factory.mktemp("corpora")
    paths = {}
    for style in ("plain", "cmd"):
        paths[style] = out / f"{style}.log"
        # The benchmark's corpus shape (16 nodes, 4 days), 300 lines long.
        argv = ["gen", "--entries", "300", *WORKLOADS.GEN_FLAGS, "--seed", "5", "--style", style,
                "--out", str(paths[style])]
        assert main(argv) == 0
    return paths


def _files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_traced_run_equals_untraced(name, corpora, tmp_path, capsys):
    workload = WORKLOADS.WORKLOADS[name]
    corpus = str(corpora[workload.style])
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    capsys.readouterr()
    assert main(workload.argv(corpus, str(plain_dir))) == 0
    plain_stdout = capsys.readouterr().out.splitlines()

    traced = subprocess.run(
        [sys.executable, str(TRACED), "--workload", name, "--corpus", corpus,
         "--out", str(traced_dir), "--src", str(ROOT / "src")],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert traced.returncode == 0, traced.stderr
    *command_stdout, last = traced.stdout.splitlines()
    layers = json.loads(last)["layers"]
    assert set(_layers()) <= set(layers)
    assert {layer for layer in _layers() if layers[layer] == 0} == IDLE_LAYERS[name]
    assert [line.replace(str(traced_dir), str(plain_dir)) for line in command_stdout] == plain_stdout
    assert _files(traced_dir) == _files(plain_dir)
