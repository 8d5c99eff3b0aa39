"""Substitution rules: message tokenization and de-identification.

A RuleSet turns a message into constant and variable terms. Insignificant
variable terms are always collapsed to one shared symbol ``#NAME#``;
significant ones are rewritten according to the active granularity:

* global      -- one shared symbol ``#NAME_#`` (strongest generalization)
* group       -- one symbol per configured group, ``#NAME<label>#``
* individual  -- one symbol per distinct value, ``#NAMEk#`` with k assigned
                 in first-occurrence order over the corpus stream

The fully generalized rewrite of a message (every variable term replaced by
its global symbol) is its *event pattern*; entries sharing an event pattern
form one event category.

De-identification works on messages and returns plain tuples: Match
triples from scan_message, and ``(deid_message, significant, pattern)``
from rewrite_matches and process_entry, ``significant`` holding one
``(value, symbol, slot)`` triple (Significant) per significant match.

Scanning skips a rule whose prefilter rules it out. The prefilter is a
necessary condition for the rule's pattern to match anywhere in a message,
derived once from the pattern's parse tree and written over literal
substrings (see TermRule.prefilter); it is never sufficient, so skipping
cannot change a match.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .model import Term, TermClass

try:
    from re import _parser as _sre_parse
except ImportError:  # Python 3.10 names the regex parser sre_parse
    import sre_parse as _sre_parse

_NAME_RE = re.compile(r"[A-Z][A-Za-z0-9]{0,7}")
# Group labels are restricted to the symbol tail alphabet below, so every
# emitted #NAME<label># stays a well-formed symbol that sanitizing keeps.
_LABEL_RE = re.compile(r"[A-Za-z0-9_]+")
# Shape of every symbol this module can emit: #NAME#, #NAME_#, #NAMEk#, #NAME<label>#.
_SYMBOL_RE = re.compile(r"#[A-Z][A-Za-z0-9]{0,7}[A-Za-z0-9_]*#")

GROUP_DEFAULT_KEY = "*"

# A prefilter in conjunctive normal form: a tuple of clauses, each a tuple
# of strings at least one of which must occur in the message. The empty
# tuple (no clause) means "always run the pattern".
Prefilter = tuple[tuple[str, ...], ...]
_ALWAYS: Prefilter = ()
# Bounds the condition: an alternation multiplies the clauses of its branches,
# and each string is one `in` test per scanned message.
_PREFILTER_MAX_STRINGS = 32

# One variable-term match: (start, end, rule index), in character offsets.
Match = tuple[int, int, int]
# One significant-term replacement: (original value, symbol, slot); see rewrite_matches.
Significant = tuple[str, str, int]


class ConfigError(ValueError):
    """Invalid rule definition or rule file."""


class GroupMapIncomplete(KeyError):
    """Group mode met a value that has no group label and no default."""

    # KeyError's str() is the repr of its argument; print the plain message.
    __str__ = Exception.__str__


class Mode(str, Enum):
    INDIVIDUAL = "individual"
    GROUP = "group"
    GLOBAL = "global"


def _as_mode(mode: Union[Mode, str], context: str = "") -> Mode:
    """``mode`` as a Mode; a plain string names its value, anything else is a ConfigError."""
    try:
        return Mode(mode)
    except ValueError:
        raise ConfigError(f"{context}unknown mode {mode!r}") from None


@dataclass(frozen=True)
class TermRule:
    """One substitution rule.

    ``pattern`` may be a regex string or a precompiled pattern; its shortest
    match must be at least one character, so ``\\b``, ``x*``, ``(?<=a)`` and
    ``(?<= )x*`` are ConfigErrors (write ``x+``). ``mode``, a Mode or its
    value, overrides the RuleSet mode for this rule only. ``group_map`` maps
    matched values to group labels; a missing value falls back to
    ``group_default`` when set. ``prefilter`` is derived from the pattern's
    parse: a message that fails it cannot match (see _prefilter_of).
    """

    name: str
    pattern: Union[str, re.Pattern]
    significant: bool = False
    mode: Optional[Mode] = None
    group_map: Optional[Mapping[str, str]] = None
    group_default: Optional[str] = None
    prefilter: Prefilter = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _NAME_RE.fullmatch(self.name):
            raise ConfigError(
                f"rule name {self.name!r} must be 1-8 ASCII alphanumerics starting uppercase"
            )
        pat = self.pattern
        if isinstance(pat, str):
            try:
                pat = re.compile(pat)
            except re.error as exc:
                raise ConfigError(f"rule {self.name}: bad pattern: {exc}") from exc
            object.__setattr__(self, "pattern", pat)
        parsed = _sre_parse.parse(pat.pattern, pat.flags)
        if parsed.getwidth()[0] == 0:
            raise ConfigError(f"rule {self.name}: pattern must not match the empty string")
        object.__setattr__(self, "prefilter", _prefilter_of(parsed))
        if self.mode is not None:
            object.__setattr__(self, "mode", _as_mode(self.mode, f"rule {self.name}: "))
        labels = list(self.group_map.values()) if self.group_map is not None else []
        if self.group_default is not None:
            labels.append(self.group_default)
        for label in labels:
            if not _LABEL_RE.fullmatch(label):
                raise ConfigError(
                    f"rule {self.name}: group label {label!r} must be ASCII letters, digits or _"
                )

    def group_label(self, value: str) -> str:
        if self.group_map is not None and value in self.group_map:
            return self.group_map[value]
        if self.group_default is not None:
            return self.group_default
        raise GroupMapIncomplete(f"rule {self.name}: no group for value {value!r}")


class RuleSymbols(NamedTuple):
    """How rewrite_matches writes one rule's matches under a RuleSet's mode.

    ``pattern_symbol`` is the rule's global symbol, which the event pattern
    always uses: ``#NAME_#`` if significant, else ``#NAME#``. ``symbol`` is
    the de-identified symbol when it does not depend on the value, else
    None; the value then gets a group label (``by_group``) or a registry
    index.
    """

    pattern_symbol: str
    symbol: Optional[str]
    significant: bool
    rule: TermRule
    by_group: bool


def _rule_symbols(rule: TermRule, mode: Mode) -> RuleSymbols:
    """The plan of ``rule`` under ``mode``, its own override taking precedence."""
    if not rule.significant:
        return RuleSymbols(f"#{rule.name}#", f"#{rule.name}#", False, rule, False)
    if rule.mode is not None:
        mode = rule.mode
    pattern_symbol = f"#{rule.name}_#"
    if mode is Mode.GROUP and rule.group_map is None and rule.group_default is None:
        mode = Mode.GLOBAL  # no grouping declared: strongest generalization applies
    if mode is Mode.GLOBAL:
        return RuleSymbols(pattern_symbol, pattern_symbol, True, rule, False)
    return RuleSymbols(pattern_symbol, None, True, rule, mode is Mode.GROUP)


@dataclass(frozen=True)
class RuleSet:
    """An ordered collection of rules plus the default granularity mode (a Mode or its value).

    ``symbols`` holds each rule's RuleSymbols under this mode, in rule order.
    """

    rules: tuple[TermRule, ...]
    mode: Mode = Mode.GLOBAL
    symbols: tuple[RuleSymbols, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "mode", _as_mode(self.mode))
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate rule names: {names}")
        object.__setattr__(
            self, "symbols", tuple(_rule_symbols(rule, self.mode) for rule in self.rules)
        )

    def with_mode(self, mode: Mode) -> "RuleSet":
        return replace(self, mode=mode)


def _prefilter_of(parsed: _sre_parse.SubPattern) -> Prefilter:
    """A necessary condition, over literal substrings, for a pattern to match.

    Derived from the pattern's parse tree ``parsed``: a run of literal
    characters is one required string; a sequence needs all its parts, an
    alternation one of its branches. Groups, atomic groups, positive
    lookarounds and repeats with a minimum of at least one are entered.
    Everything else (classes, categories, negative lookarounds, back
    references, conditionals, a scoped ``(?i:...)``) requires nothing. Any
    global IGNORECASE, or a condition of more than _PREFILTER_MAX_STRINGS
    strings, gives _ALWAYS.
    """
    if parsed.state.flags & re.IGNORECASE:
        return _ALWAYS
    cnf = _sequence_cnf(parsed)
    return cnf if _cnf_size(cnf) <= _PREFILTER_MAX_STRINGS else _ALWAYS


def _cnf_size(cnf: Prefilter) -> int:
    return sum(len(clause) for clause in cnf)


def _sequence_cnf(items) -> Prefilter:
    """AND over a sequence of parse-tree nodes; adjacent literals join into one string."""
    clauses: list[tuple[str, ...]] = []
    run: list[str] = []
    for op, av in items:
        if op.name == "LITERAL":
            run.append(chr(av))
            continue
        if run:
            clauses.append(("".join(run),))
            run = []
        clauses.extend(_node_cnf(op.name, av))
    if run:
        clauses.append(("".join(run),))
    return tuple(dict.fromkeys(clauses))


def _node_cnf(name: str, av) -> Prefilter:
    if name == "SUBPATTERN":
        _, add_flags, _, body = av
        return _ALWAYS if add_flags & re.IGNORECASE else _sequence_cnf(body)
    if name == "ATOMIC_GROUP":
        return _sequence_cnf(av)
    if name == "ASSERT":  # lookahead or lookbehind: its text is in the message too
        return _sequence_cnf(av[1])
    if name in ("MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT"):
        low, _, body = av
        return _sequence_cnf(body) if low >= 1 else _ALWAYS
    if name == "BRANCH":
        # OR of two CNFs: one clause per pair of clauses, their union.
        result: Optional[Prefilter] = None
        for branch in av[1]:
            cnf = _sequence_cnf(branch)
            if not cnf:
                return _ALWAYS
            if result is not None:
                cnf = tuple(
                    dict.fromkeys(tuple(dict.fromkeys(a + b)) for a in result for b in cnf)
                )
            if _cnf_size(cnf) > _PREFILTER_MAX_STRINGS:
                return _ALWAYS
            result = cnf
        return result
    return _ALWAYS


def _may_match(prefilter: Prefilter, message: str) -> bool:
    """False only if some clause has none of its strings in ``message``."""
    for clause in prefilter:
        for text in clause:
            if text in message:
                break
        else:
            return False
    return True


class SymbolRegistry:
    """Corpus-scoped value->index assignment for individual de-identification.

    Indices are dense, 1-based, and assigned in first-occurrence order, so a
    sequential pass over the same entry order always reproduces the same
    symbols. Not thread-safe: the streaming pipeline assigns indices only
    in its single ordered reduce step, which also keeps first-occurrence
    order.
    """

    def __init__(self) -> None:
        self._by_rule: dict[str, dict[str, int]] = {}

    def index(self, rule_name: str, value: str) -> int:
        values = self._by_rule.setdefault(rule_name, {})
        idx = values.get(value)
        if idx is None:
            idx = len(values) + 1
            values[value] = idx
        return idx

    def rows(self) -> Iterator[tuple[str, str]]:
        """Yield (symbol, original value) pairs in assignment order."""
        for rule_name, values in self._by_rule.items():
            for value, idx in values.items():
                yield f"#{rule_name}{idx}#", value


def sanitize_message(message: str) -> str:
    """Replace literal '#' by '?' except inside already well-formed symbols.

    Keeps emitted symbols unambiguous (any ``#...#`` run in a de-identified
    message is a symbol) while leaving a previously de-identified message
    unchanged, so de-identification is idempotent on its own output.
    """
    if "#" not in message:
        return message
    parts: list[str] = []
    last = 0
    for m in _SYMBOL_RE.finditer(message):
        parts.append(message[last : m.start()].replace("#", "?"))
        parts.append(m.group())
        last = m.end()
    parts.append(message[last:].replace("#", "?"))
    return "".join(parts)


def scan_message(message: str, ruleset: RuleSet) -> tuple[Match, ...]:
    """Find all variable-term matches, leftmost-longest, ties by rule order.

    Matches are never empty (see TermRule) and never overlap: after a match
    is taken, scanning resumes at its end, from where a candidate behind it
    is searched once more. Character offsets refer to ``message`` as given.
    A rule runs only if its prefilter holds, and leaves the scan once a
    search finds nothing: a search from a later position cannot match either.
    """
    rules = ruleset.rules
    if not rules or not message:
        return ()
    # Rule index -> the rule's next candidate match at or after the cursor.
    candidates: dict[int, re.Match] = {}
    for i, rule in enumerate(rules):
        if _may_match(rule.prefilter, message):
            m = rule.pattern.search(message)
            if m is not None:
                candidates[i] = m
    matches: list[Match] = []
    pos = 0
    n = len(message)
    while candidates and pos < n:
        best: Optional[tuple[int, int, int]] = None  # (start, -length, rule_index)
        for i, m in list(candidates.items()):
            if m.start() < pos:
                m = rules[i].pattern.search(message, pos)
                if m is None:
                    del candidates[i]
                    continue
                candidates[i] = m
            key = (m.start(), -(m.end() - m.start()), i)
            if best is None or key < best:
                best = key
        if best is None:
            break
        start, neg_len, rule_index = best
        end = start - neg_len
        matches.append((start, end, rule_index))
        pos = end
    return tuple(matches)


def tokenize(message: str, ruleset: RuleSet) -> list[Term]:
    """Split a message into constant and variable terms.

    The terms cover the message completely, in order; gaps between rule
    matches become constant terms. An empty message yields no terms.
    """
    terms: list[Term] = []
    cursor = 0
    for start, end, rule_index in scan_message(message, ruleset):
        if start > cursor:
            terms.append(Term(message[cursor:start], TermClass.CONSTANT))
        rule = ruleset.rules[rule_index]
        klass = TermClass.VARIABLE_SIGNIFICANT if rule.significant else TermClass.VARIABLE_INSIGNIFICANT
        terms.append(Term(message[start:end], klass))
        cursor = end
    if cursor < len(message):
        terms.append(Term(message[cursor:], TermClass.CONSTANT))
    return terms


def rewrite_matches(
    sanitized: str,
    matches: Sequence[Match],
    ruleset: RuleSet,
    registry: Optional[SymbolRegistry] = None,
) -> tuple[str, tuple[Significant, ...], str]:
    """Build (deid_message, significant, event_pattern) from one scan.

    ``sanitized`` must be the sanitize_message() form the matches were
    computed on, and ``matches`` what scan_message returned for it. The
    event pattern is derived from the same matches with every rule forced
    to its global symbol, so it never depends on the configured mode or
    per-rule overrides. A significant value's slot is the number of symbols
    before it in the pattern: one per match, and one per well-formed symbol
    wholly inside a constant (the input held it).

    Individual-mode indices come from ``registry``. Without one, a registry
    scoped to this call is created at the first individual-mode significant
    match, so the message's own distinct values get distinct symbols
    numbered from 1.
    """
    plan = ruleset.symbols
    deid_parts: list[str] = []
    pattern_parts: list[str] = []
    significant: list[Significant] = []
    cursor = 0
    slot = 0
    for start, end, rule_index in matches:
        if start > cursor:
            constant = sanitized[cursor:start]
            deid_parts.append(constant)
            pattern_parts.append(constant)
            if "#" in constant:
                slot += len(_SYMBOL_RE.findall(constant))
        pattern_symbol, symbol, is_significant, rule, by_group = plan[rule_index]
        if is_significant:
            value = sanitized[start:end]
            if symbol is None:
                if by_group:
                    symbol = f"#{rule.name}{rule.group_label(value)}#"
                else:
                    if registry is None:
                        registry = SymbolRegistry()
                    symbol = f"#{rule.name}{registry.index(rule.name, value)}#"
            significant.append((value, symbol, slot))
        slot += 1
        deid_parts.append(symbol)
        pattern_parts.append(pattern_symbol)
        cursor = end
    if cursor < len(sanitized):
        tail = sanitized[cursor:]
        deid_parts.append(tail)
        pattern_parts.append(tail)
    return "".join(deid_parts), tuple(significant), "".join(pattern_parts)


def process_entry(
    message: str,
    ruleset: RuleSet,
    registry: Optional[SymbolRegistry] = None,
) -> tuple[str, tuple[Significant, ...], str]:
    """De-identify one message: (deid_message, significant, event_pattern).

    Sanitizes and scans the message once and derives both rewrites from the
    same matches (see rewrite_matches), which guarantees the pattern is
    exactly the fully-global rewrite of the message the de-identification
    was computed from. An entry's timestamp and source are not rewritten,
    so only its message is taken. Without ``registry``, individual-mode
    indices are scoped to this one call; pass one registry to number values
    across a corpus.
    """
    sanitized = sanitize_message(message)
    return rewrite_matches(sanitized, scan_message(sanitized, ruleset), ruleset, registry)


# --- rule files -------------------------------------------------------------

_RULE_SECTION_RE = re.compile(r"rule\s+(\S+)")
_GROUPS_SECTION_RE = re.compile(r"groups\s+(\S+)")


def _check_keys(parser: configparser.RawConfigParser, section: str, known: tuple[str, ...]) -> None:
    """A misspelt key would silently change the ruleset, so any key not in ``known`` is an error."""
    for key in parser.options(section):
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{section}]")


def loads_rules(text: str) -> RuleSet:
    """Parse a rule file (INI syntax). See load_rules for the layout."""
    parser = configparser.RawConfigParser(delimiters=("=",), interpolation=None)
    parser.optionxform = str  # group-map keys are case-sensitive values
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad rule file: {exc}") from exc
    if parser.defaults():
        # configparser would copy [DEFAULT] keys into every other section.
        raise ConfigError("unknown section [DEFAULT]")

    mode = Mode.GLOBAL
    if parser.has_section("ruleset"):
        _check_keys(parser, "ruleset", ("mode",))
        mode = _as_mode(parser.get("ruleset", "mode", fallback="global").strip().lower())

    groups: dict[str, tuple[dict[str, str], Optional[str]]] = {}
    for section in parser.sections():
        g = _GROUPS_SECTION_RE.fullmatch(section)
        if not g:
            continue
        table = dict(parser.items(section))
        default = table.pop(GROUP_DEFAULT_KEY, None)
        groups[g.group(1)] = (table, default)

    rules: list[TermRule] = []
    for section in parser.sections():
        r = _RULE_SECTION_RE.fullmatch(section)
        if not r:
            if section != "ruleset" and not _GROUPS_SECTION_RE.fullmatch(section):
                raise ConfigError(f"unknown section [{section}]")
            continue
        name = r.group(1)
        _check_keys(parser, section, ("pattern", "significant", "mode"))
        if not parser.has_option(section, "pattern"):
            raise ConfigError(f"rule {name}: missing pattern")
        override = parser.get(section, "mode", fallback=None)
        try:
            significant = parser.getboolean(section, "significant", fallback=False)
        except ValueError as exc:
            raise ConfigError(f"rule {name}: {exc}") from None
        group_map, group_default = groups.pop(name, (None, None))
        rules.append(
            TermRule(
                name=name,
                pattern=parser.get(section, "pattern"),
                significant=significant,
                mode=override.strip().lower() if override else None,
                group_map=group_map if group_map else None,
                group_default=group_default,
            )
        )
    if groups:
        raise ConfigError(f"group tables without a matching rule: {sorted(groups)}")
    return RuleSet(tuple(rules), mode)


def load_rules(path: Union[str, Path]) -> RuleSet:
    """Load a RuleSet from an INI rule file.

    Layout::

        [ruleset]
        ; individual | group | global
        mode = global

        [rule USER]
        pattern = (?<=\\()[a-z]+(?=\\) CMD \\()
        significant = yes
        ; optional per-rule override
        mode = individual

        ; optional, enables group mode for USER
        [groups USER]
        siavash = n
        root = p
        ; optional default label
        * = n

    Comments go on lines of their own; a ``;`` after a value is part of it.
    A key not shown above in ``[ruleset]`` or ``[rule X]`` is an error;
    ``[groups X]`` keys are values and may be anything. A leading UTF-8
    byte-order mark is skipped; a file that is missing, unreadable or not
    UTF-8, or a path that names a directory, raises ConfigError.
    """
    if Path(path).is_dir():
        raise ConfigError(f"rule file is a directory: {path}")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"rule file {path} is not valid UTF-8: {exc}") from None
    except FileNotFoundError:
        raise ConfigError(f"rule file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read rule file {path}: {exc.strerror}") from None
    return loads_rules(text)


# 14 daemon names; site-specific configuration, override per corpus as needed.
DAEMON_NAMES: tuple[str, ...] = (
    "anacron",
    "0anacron",
    "crond",
    "sshd",
    "systemd",
    "sudo",
    "rsyslogd",
    "ntpd",
    "postfix",
    "dbus",
    "polkitd",
    "audispd",
    "munged",
    "slurmd",
)


def default_ruleset(mode: Mode = Mode.GLOBAL) -> RuleSet:
    """The built-in ruleset used when no rule file is given.

    Covers the usual suspects in system logs: usernames in command/session
    lines, absolute paths, IPv4 addresses, ISO dates, bare integers, and a
    configurable daemon-name list.
    """
    daemon_alt = "|".join(re.escape(n) for n in sorted(DAEMON_NAMES, key=len, reverse=True))
    # IPv4 and NUM begin with \d rather than \b, so re's search can skip ahead
    # to the next digit; \d(?<=\b\d) matches at exactly the positions \b\d does.
    return RuleSet(
        (
            TermRule("DAEM", rf"\b(?:{daemon_alt})\b", significant=True),
            TermRule("IPv4", r"\d(?<=\b\d)\d{0,2}\.(?:\d{1,3}\.){2}\d{1,3}\b", significant=False),
            TermRule(
                "TIME",
                r"\b\d{4}-\d{2}-\d{2}(?:[ T]\d{2}:\d{2}(?::\d{2})?)?\b",
                significant=False,
            ),
            TermRule(
                "USER",
                r"(?<=\()[A-Za-z][\w.-]*(?=\) (?:CMD|cmd) \()|(?<=\bfor )[A-Za-z][\w.-]*$",
                significant=True,
            ),
            TermRule("PATH", r"/[^\s()]+", significant=False),
            TermRule("NUM", r"\d(?<=\b\d)\d*\b", significant=True),
        ),
        mode,
    )
