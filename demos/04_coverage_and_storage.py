"""
Pattern concentration and storage savings at scale
==================================================

System logs are dominated by a handful of event patterns: on a synthetic
Zipf corpus the top handful of patterns covers most lines, which is what
makes per-pattern usefulness bookkeeping tractable at scale. Encoding every
message to two 8-hex-char keys also shrinks the corpus dramatically; the
storage report quantifies both directions.
"""

from collections import Counter

from loganon import (
    CorpusSpec,
    EncodingDictionaries,
    RuleSet,
    StorageTally,
    encode_entry,
    generate_lines,
    parse_line,
    process_entry,
    top_k_coverage,
)

spec = CorpusSpec(entries=200_000, patterns=10_000, seed=42, nodes=8, days=7)
no_rules = RuleSet(())  # messages are constant per pattern, nothing to rewrite

counts: Counter[str] = Counter()
dicts = EncodingDictionaries()
tally = StorageTally(dicts)
for line in generate_lines(spec):
    _, _, message = parse_line(line)
    deid_message, _, pattern = process_entry(message, no_rules)
    encode_entry(deid_message, pattern, dicts)
    tally.add(len(message.encode("utf-8")))
    counts[pattern] += 1

table = top_k_coverage(counts.values(), [5, 25, 50, 500])

print(f"{spec.entries} entries, {table.n_patterns} distinct event patterns\n")
print("coverage of the most frequent patterns:")
for k, coverage in table.rows:
    print(f"  top {k:4d}: {float(coverage) * 100:6.2f}%")

print("\nstorage accounting:")
for line in tally.report():
    print(f"  {line}")
