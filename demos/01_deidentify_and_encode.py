"""
De-identification and encoding, step by step
============================================

Walks a handful of syslog lines through the two anonymization stages:
variable terms are rewritten to symbols under three granularities, then the
rewritten message is collapsed to a fixed-width hash key plus a category
key identifying its event pattern.
"""

from loganon import (
    EncodingDictionaries,
    Mode,
    RuleSet,
    SymbolRegistry,
    TermRule,
    encode_entry,
    parse_line,
    process_entry,
    tokenize,
)

LINES = [
    "1515625261 T-1230 (siavash) cmd (/home/siavash/config.sh > /dev/null)",
    "1515625262 T-1231 (florina) cmd (/home/florina/setup.sh > /dev/null)",
    "1515625263 T-1230 (root) cmd (/opt/audit/scan.sh > /dev/null)",
    "1515625713 T-6201 disabling lock debugging due to kernel taint",
]

# Two rules: usernames in command lines matter for the analysis
# (significant), the paths they ran do not (insignificant).
RULES = RuleSet(
    (
        TermRule("USR", r"(?<=\()[a-z]+(?=\) cmd \()", significant=True,
                 group_map={"root": "p"}, group_default="n"),
        TermRule("PATH", r"/[^\s()]+"),
    )
)

entries = [parse_line(line) for line in LINES]

# --- 1. tokenization --------------------------------------------------------
# The first message splits into constant text and two kinds of variable term.
print("terms of the first message:")
_, _, first_message = entries[0]
for text, klass in tokenize(first_message, RULES):
    print(f"  {klass.value:24s} {text!r}")

# --- 2. three degrees of generalization --------------------------------------
# global: every username becomes one symbol; group: one symbol per user
# group; individual: one symbol per user, numbered by first appearance.
for mode in (Mode.GLOBAL, Mode.GROUP, Mode.INDIVIDUAL):
    registry = SymbolRegistry()
    print(f"\n{mode.value} de-identification:")
    for _, _, message in entries:
        deid_message, _, _ = process_entry(message, RULES.with_mode(mode), registry)
        print(f"  {deid_message}")

# --- 3. encoding --------------------------------------------------------------
# The hash key identifies the rewritten message; the category key identifies
# the fully generalized pattern, so the three command lines land in one
# category even when their hash keys differ.
print("\nencoded (individual mode):")
individual = RULES.with_mode(Mode.INDIVIDUAL)
registry = SymbolRegistry()
dicts = EncodingDictionaries()
for timestamp, source, message in entries:
    deid_message, _, pattern = process_entry(message, individual, registry)
    hash_key, category_key = encode_entry(deid_message, pattern, dicts)
    # Timestamp and source pass through; the message becomes the two keys.
    print(f"  {timestamp} {source} {hash_key} {category_key}")

print("\nhash key meanings:")
for key, text in dicts.messages.items():
    print(f"  {key} -> {text!r}")
print("\ncategories:")
for key, text in dicts.patterns.items():
    print(f"  {key} -> {text!r}")
