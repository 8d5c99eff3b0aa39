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
    PatternStats,
    RuleSet,
    StorageTally,
    encode_entry,
    generate_lines,
    hash_text,
    parse_line,
    process_entry,
    top_k_coverage,
)

spec = CorpusSpec(entries=200_000, patterns=10_000, seed=42, nodes=8, days=7)
no_rules = RuleSet(())  # messages are constant per pattern, nothing to rewrite

counts: Counter[str] = Counter()
dicts = EncodingDictionaries()
tally = StorageTally()
for line in generate_lines(spec):
    entry = parse_line(line)
    deid_message, _, pattern = process_entry(entry.message, no_rules)
    hash_key, category_key = encode_entry(deid_message, pattern, dicts)
    # Two key columns and the space between them.
    encoded_bytes = len(hash_key) + 1 + len(category_key)
    tally.add(len(entry.message.encode("utf-8")), encoded_bytes)
    counts[pattern] += 1

stats = [PatternStats(hash_text(p), p, f_p) for p, f_p in counts.items()]
table = top_k_coverage(stats, [5, 25, 50, 500])

print(f"{spec.entries} entries, {table.n_patterns} distinct event patterns\n")
print("coverage of the most frequent patterns:")
for k, coverage in table.rows:
    print(f"  top {k:4d}: {float(coverage) * 100:6.2f}%")

print("\nstorage accounting:")
for line in tally.report(dicts).lines():
    print(f"  {line}")
