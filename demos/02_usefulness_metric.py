"""
How much analysis value survives anonymization?
===============================================

A 20-line cron/anacron corpus is de-identified at three granularities and
scored with the dominance-weighted usefulness metric. Each event pattern
contributes its share of the corpus times the fraction of significant-term
distinctions its symbols still expose; 1.0 means nothing the analysis needs
was generalized away.
"""

from fractions import Fraction

from loganon import (
    Mode,
    SymbolRegistry,
    UsefulnessAccumulator,
    loads_rules,
    parse_line,
    process_entry,
    render_decimal,
    usefulness_from_summary,
)

CORPUS = """\
1517270460 T-1020 (siavash) CMD (/usr/bin/check >/dev/null 2>&1)
1517271060 T-1021 (florina) CMD (/usr/lib32/lm/lm1 1 1)
1517271660 T-1020 (siavash) CMD (run-parts /etc/cron.hourly)
1517272260 T-1022 starting 0anacron
1517272320 T-1022 Anacron started on 2018-01-30
1517272380 T-1022 Jobs will be executed sequentially
1517272440 T-1022 Normal exit (0 jobs run)
1517272500 T-1022 finished 0anacron
1517273100 T-1023 (siavash) CMD (/usr/lib32/lm/lm1 1 1)
1517273700 T-1024 (root) CMD (/usr/lib32/cl/cl2 1 1)
1517356860 T-1025 (root) CMD (/usr/lib64/lm/lm1 1 1)
1517357460 T-1020 (siavash) CMD (/usr/bin/check >/dev/null 2>&1)
1517358060 T-1021 (florina) CMD (/usr/bin/run >/dev/null 2>&1)
1517358660 T-1023 (siavash) CMD (/usr/bin/exec >/dev/null 2>&1)
1517359260 T-1020 (siavash) CMD (run-parts /etc/cron.hourly)
1517359860 T-1022 starting 0anacron
1517359920 T-1022 Anacron started on 2018-01-31
1517359980 T-1022 Jobs will be executed sequentially
1517360040 T-1022 Normal exit (4 jobs run)
1517360100 T-1022 finished 0anacron
"""

# Usernames, daemon names, and job counts are significant for failure
# analysis; paths and dates are not. The group table splits users into
# normal (n) and privileged (p).
RULES = loads_rules("""
[ruleset]
mode = global

[rule USER]
pattern = (?<=\\()[a-z]+(?=\\) CMD \\()
significant = yes

[rule DAEM]
pattern = \\b(?:0anacron|Anacron)\\b
significant = yes

[rule TIME]
pattern = \\b\\d{4}-\\d{2}-\\d{2}\\b
significant = no

[rule PATH]
pattern = (?<=CMD \\()[^()]+(?=\\))
significant = no

[rule NUM]
pattern = \\b\\d+\\b
significant = yes

[groups USER]
siavash = n
florina = n
root = p
""")

entries = [parse_line(line) for line in CORPUS.splitlines()]

for mode in (Mode.GLOBAL, Mode.GROUP, Mode.INDIVIDUAL):
    registry = SymbolRegistry()
    acc = UsefulnessAccumulator()
    for _, _, message in entries:
        _, significant, pattern = process_entry(message, RULES.with_mode(mode), registry)
        # The metric needs only the (value, symbol, slot) triples and the event pattern.
        acc.add(significant, pattern)
    report = acc.report(mode.value)
    print(f"=== {mode.value} ===")
    for line in report.table_lines():
        print(line)
    print()

# When only aggregate shares are known (say, a frequency table of the top
# patterns), the metric evaluates directly from (dominance, ratio) pairs.
# Here: five head patterns cover 71% of a corpus, two of them keep 1 of 14
# daemon-name distinctions; the 28% residual is scored as fully useful and
# the last 1% as worthless.
head = [
    (Fraction("0.43"), 1),
    (Fraction("0.09"), Fraction(1, 14)),
    (Fraction("0.09"), Fraction(1, 14)),
    (Fraction("0.05"), 1),
    (Fraction("0.05"), 1),
]
print("head only:        ", render_decimal(usefulness_from_summary(head)))
full = usefulness_from_summary(head + [(Fraction("0.28"), 1)], residual=(Fraction("0.01"), 0))
print("with residual:    ", render_decimal(full))
