"""Anonymize system-log corpora and measure what the result is still good for.

Two-step anonymization: rule-based de-identification of variable terms,
then irreversible fixed-width hash encoding of the rewritten messages.
Companion analytics quantify the privacy/usefulness trade-off (dominance-
weighted usefulness metric, top-K pattern coverage, storage savings) and
build per-node occurrence grids for failure analysis.

The usefulness metric over entries comes from UsefulnessAccumulator, the
path every command takes; usefulness_from_summary evaluates it from
aggregate shares. ``loganon.usefulness`` is the module that holds both.
"""

from .model import (
    MalformedLine,
    RawLogEntry,
    Term,
    TermClass,
    parse_line,
    render_entry,
)
from .rules import (
    ConfigError,
    GroupMapIncomplete,
    Mode,
    RuleSet,
    SymbolRegistry,
    TermRule,
    default_ruleset,
    load_rules,
    loads_rules,
    process_entry,
    sanitize_message,
    tokenize,
)
from .encoder import (
    CollisionDetected,
    EncoderConfig,
    EncodingDictionaries,
    PatternDictionary,
    StorageReport,
    StorageTally,
    encode_entry,
    hash_text,
)
from .usefulness import (
    CoverageTable,
    DomainError,
    PatternStats,
    UsefulnessAccumulator,
    UsefulnessReport,
    render_decimal,
    top_k_coverage,
    usefulness_from_summary,
)
from .grids import (
    DimensionMismatch,
    OccurrenceGrid,
    build_grid,
    difference_grid,
    emit_grid,
    similarity_grid,
)
from .synth import CorpusSpec, generate_lines

__version__ = "0.1.0"

__all__ = [
    "CollisionDetected",
    "ConfigError",
    "CorpusSpec",
    "CoverageTable",
    "DimensionMismatch",
    "DomainError",
    "EncoderConfig",
    "EncodingDictionaries",
    "GroupMapIncomplete",
    "MalformedLine",
    "Mode",
    "OccurrenceGrid",
    "PatternDictionary",
    "PatternStats",
    "RawLogEntry",
    "RuleSet",
    "StorageReport",
    "StorageTally",
    "SymbolRegistry",
    "Term",
    "TermClass",
    "TermRule",
    "UsefulnessAccumulator",
    "UsefulnessReport",
    "build_grid",
    "default_ruleset",
    "difference_grid",
    "emit_grid",
    "encode_entry",
    "generate_lines",
    "hash_text",
    "load_rules",
    "loads_rules",
    "parse_line",
    "process_entry",
    "render_decimal",
    "render_entry",
    "sanitize_message",
    "similarity_grid",
    "tokenize",
    "top_k_coverage",
    "usefulness_from_summary",
]
