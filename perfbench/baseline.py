#!/usr/bin/env python3
"""Record the baseline: every workload, untraced and traced, in one command.

    python3 perfbench/baseline.py

Runs run.py once with --trace 0 and once with --trace 1 per workload, on
the ROADMAP baseline corpora (200,000 lines, seed 11), writes all metrics
with the machine facts to perfbench/baseline.json, and prints the ROADMAP
baseline table rows these workloads cover.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 11
SECONDS = 12
ENTRIES = 200000  # the ROADMAP baseline size

ROWS = {
    "anon-cmd-individual": "`anonymize` | cmd, individual, 8-byte, `--workers 1`",
    "anon-cmd-individual-w2": "`anonymize` | cmd, individual, 8-byte, `--workers 2`",
    "anon-plain-global": "`anonymize` | plain, global",
    "usefulness-cmd": "`usefulness` | cmd, global, per day",
    "patterns-cmd": "`patterns` | cmd",
    "compare-cmd": "`compare` | raw cmd, n001 n002, pgm",
}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace), "--entries", str(ENTRIES)]
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} --trace {trace} failed:\n{done.stderr}")
    lines = done.stdout.splitlines()
    facts = json.loads(next(line for line in lines if line.startswith("facts "))[len("facts "):])
    return facts, json.loads(lines[-1])


def main() -> int:
    results = {}
    facts = {}
    for name in WORKLOADS:
        facts, untraced = run(name, 0)
        _, traced = run(name, 1)
        results[name] = {"untraced": untraced, "traced": traced}
    (HERE / "baseline.json").write_text(json.dumps({"facts": facts, "entries": ENTRIES, "seconds": SECONDS,
                                                    "workloads": results}, indent=1) + "\n", encoding="utf-8")
    print(f"{ENTRIES} lines, seed {SEED}; {json.dumps(facts)}")
    print("| command | corpus / flags | wall | lines/s | cpu | peak RSS | setup | repeat ratio | correct |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, result in results.items():
        m = {k: v["value"] for k, v in result["untraced"]["metrics"].items()}
        t = {k: v["value"] for k, v in result["traced"]["metrics"].items()}
        ok = result["untraced"]["correct"] and result["traced"]["correct"]
        print(f"| {ROWS[name]} | {m['wall_s']:.2f} s | {m['lines_per_s']:.0f} | {m['cpu_s']:.2f} s | "
              f"{m['peak_rss_mb']:.1f} MB | {m['setup_s']:.3f} s | {t['rules.repeat_ratio']:.3f} | {ok} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
