#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the loganon CLI on `loganon gen` corpora.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The checkout is the directory above perfbench/ and must hold src/loganon. It
makes the workload's corpus with `python -m loganon gen` from --seed,
then, with --trace 0:

* runs the command once on a one-line corpus to warm the bytecode cache;
* for --seconds (at least five times) runs the command on the one-line
  corpus, then on the full corpus. The median wall of the one-line runs
  is setup_s (interpreter start, imports, ruleset compile, pool fork);
  the full runs give the median wall, lines/s, user+sys CPU and peak RSS
  of the process tree, all from os.wait4 on our own child.

With --trace 1 it alternates an untraced CLI run with traced.py, which
runs the program's own `cli.main` with per-layer timers, and reports the
median layer self times and the workload's counts.

Every output of every run is checked: against oracle.py, which predicts
each file from the corpus without importing loganon, and, for the traced
run and for --workers 2, for byte identity with the reference run.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics, with the metrics and units BENCHMARK.json declares;
the lines before it give the repetition times and the machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import oracle
from workloads import DEFAULT_ENTRIES, GEN_FLAGS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_REPS = 5
BUDGET_S = 170.0  # the whole run, set-up included, must end within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Runner:
    """Starts processes with this tree's src/ on the path, times them and counts failures."""

    def __init__(self, work: Path, deadline: float) -> None:
        # Only this tree's src/: an inherited PYTHONPATH could name a stale copy.
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv: list[str]) -> Run:
        """Run argv to completion; wall from start to reap, CPU and RSS from os.wait4."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def loganon(self, argv: list[str]) -> Run:
        return self.spawn([sys.executable, "-m", "loganon", *argv])

    def check(self, label: str, run: Run, problem: Optional[str]) -> bool:
        """Count one attempted command; it fails on a non-zero exit or a problem."""
        self.attempted += 1
        if run.code != 0:
            problem = f"exit code {run.code}: {run.stderr.strip()[-500:]}"
        if problem is None:
            return True
        self.failed += 1
        print(f"FAILED {label}: {problem}", file=sys.stderr)
        return False


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def files_problem(out_dir: Path, expected: dict[str, bytes]) -> Optional[str]:
    """None when out_dir holds exactly the expected files with exactly the expected bytes."""
    names = sorted(p.name for p in out_dir.iterdir())
    if names != sorted(expected):
        return f"files {names}, expected {sorted(expected)}"
    for name, want in expected.items():
        got = (out_dir / name).read_bytes()
        if got != want:
            got_lines, want_lines = got.splitlines(), want.splitlines()
            for i, (g, w) in enumerate(zip(got_lines, want_lines), 1):
                if g != w:
                    return f"{name} line {i}: {g[:120]!r} != expected {w[:120]!r}"
            return f"{name}: {len(got_lines)} lines, expected {len(want_lines)}"
    return None


def stdout_problem(stdout: str, expected_lines: list[str]) -> Optional[str]:
    """None when the expected lines appear in stdout in order."""
    remaining = iter(stdout.splitlines())
    for want in expected_lines:
        if not any(line == want for line in remaining):
            return f"stdout lacks {want!r}"
    return None


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in path.iterdir()}


def machine_facts(runner: Runner, seed: int) -> dict:
    probe = "import json, loganon, numpy; print(json.dumps([loganon.__file__, numpy.__version__]))"
    run = runner.spawn([sys.executable, "-c", probe])
    if run.code != 0:
        raise BenchError(f"cannot import loganon from {SRC}: {run.stderr.strip()[-500:]}")
    loganon_file, numpy_version = json.loads(run.stdout)
    if Path(loganon_file).resolve().parent != (SRC / "loganon").resolve():
        raise BenchError(f"loganon was imported from {loganon_file}, not from {SRC}")
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "loganon").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": src_digest.hexdigest()[:16],
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def make_corpus(runner: Runner, wl: Workload, seed: int, entries: int, path: Path) -> oracle.Corpus:
    gen = ["gen", "--entries", str(entries), *GEN_FLAGS, "--seed", str(seed), "--style", wl.style]
    run = runner.loganon([*gen, "--out", str(path)])
    if run.code != 0:
        raise BenchError(f"loganon gen failed: {run.stderr.strip()[-500:]}")
    try:
        return oracle.parse_corpus(path.read_text(encoding="utf-8"), wl.style)
    except oracle.CorpusError as exc:
        raise BenchError(str(exc)) from exc


def run_checked(runner: Runner, wl: Workload, label: str, corpus: Path, expected: oracle.Expected,
                out_dir: Path, args: Optional[tuple[str, ...]] = None) -> Run:
    run = runner.loganon(wl.argv(str(corpus), str(fresh_dir(out_dir)), args))
    problem = None
    if run.code == 0:
        problem = files_problem(out_dir, expected.files) or stdout_problem(run.stdout, expected.stdout_lines)
    runner.check(label, run, problem)
    return run


def measure(runner: Runner, wl: Workload, seconds: float, corpus_path: Path, corpus: oracle.Corpus,
            one_path: Path, one: oracle.Corpus) -> dict:
    """Untraced runs: set-up on the one-line corpus, then the timed repetitions."""
    expected, expected_one = wl.expect(corpus), wl.expect(one)
    out_dir = runner.work / "out"
    run_checked(runner, wl, "warm-up", one_path, expected_one, out_dir)
    # Set-up runs alternate with the full ones, so both sample the same stretch of time.
    setup: list[float] = []
    reps: list[Run] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        setup.append(run_checked(runner, wl, f"setup {len(setup)}", one_path, expected_one, out_dir).wall_s)
        reps.append(run_checked(runner, wl, f"rep {len(reps)}", corpus_path, expected, out_dir))
    if wl.reference_args is not None:
        ref_dir = runner.work / "reference"
        ref = run_checked(runner, wl, "reference", corpus_path, expected, ref_dir, wl.reference_args)
        if ref.code == 0:
            runner.check("identical to reference", ref, files_problem(out_dir, dir_bytes(ref_dir)))
    walls = [r.wall_s for r in reps]
    wall = statistics.median(walls)
    print(f"reps {len(reps)}: wall {' '.join(f'{w:.4f}' for w in walls)} s; "
          f"setup {len(setup)}: {' '.join(f'{w:.4f}' for w in setup)} s")
    return {
        "lines_per_s": len(corpus.lines) / wall,
        "wall_s": wall,
        "cpu_s": statistics.median(r.cpu_s for r in reps),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "setup_s": statistics.median(setup),
        "ok_ratio": 1 - runner.failed / runner.attempted,
    }


def trace(runner: Runner, wl: Workload, name: str, seconds: float, corpus_path: Path,
          corpus: oracle.Corpus) -> dict:
    """Alternate untraced CLI runs with traced ones; per-layer medians."""
    expected = wl.expect(corpus)
    out_dir, traced_dir = runner.work / "out", runner.work / "traced"
    untraced_walls, traced_walls, results = [], [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        cli_run = run_checked(runner, wl, "untraced", corpus_path, expected, out_dir)
        untraced_walls.append(cli_run.wall_s)
        run = runner.spawn([sys.executable, str(ROOT / "perfbench" / "traced.py"), "--workload", name,
                            "--corpus", str(corpus_path), "--out", str(fresh_dir(traced_dir)),
                            "--src", str(SRC)])
        traced_walls.append(run.wall_s)
        problem = None
        if run.code == 0:
            # The command prints the paths it wrote, which differ only by directory.
            traced_stdout = run.stdout.replace(str(traced_dir), str(out_dir))
            problem = files_problem(traced_dir, dir_bytes(out_dir)) or stdout_problem(
                traced_stdout, cli_run.stdout.splitlines())
        if not runner.check("traced run identical to CLI", run, problem):
            break
        results.append(json.loads(run.stdout.splitlines()[-1]))
    if not results:
        raise BenchError("the traced run failed")
    metrics = {}
    for layer in results[0]["layers"]:
        metrics[layer] = statistics.median(r["layers"][layer] for r in results)
    metrics.update(results[-1]["counts"])
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.untimed_s"] = statistics.median(r["untimed_s"] for r in results)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls)
    metrics["failed_ratio"] = runner.failed / runner.attempted
    print(f"traced pairs {len(results)}: traced wall {metrics['trace.wall_s']:.4f} s, "
          f"untraced {statistics.median(untraced_walls):.4f} s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Seeded end-to-end benchmark of the loganon CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--entries", type=int, default=DEFAULT_ENTRIES, help="corpus lines")
    args = parser.parse_args()
    if not (SRC / "loganon" / "__init__.py").is_file():
        print(f"error: no loganon sources under {SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so the running command is killed and reaped first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    wl = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(fresh_dir(work), time.monotonic() + BUDGET_S)
    try:
        facts = machine_facts(runner, args.seed)
        corpus_path = work / "corpus.log"
        corpus = make_corpus(runner, wl, args.seed, args.entries, corpus_path)
        one_path = work / "one.log"
        with open(corpus_path, encoding="utf-8") as f:
            one_path.write_text(f.readline(), encoding="utf-8")
        one = oracle.Corpus(wl.style, corpus.lines[:1])
        if args.trace:
            metrics = trace(runner, wl, args.workload, args.seconds, corpus_path, corpus)
        else:
            metrics = measure(runner, wl, args.seconds, corpus_path, corpus, one_path, one)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"error: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 2
    print("facts " + json.dumps(facts))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
