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
triples from scan_message and scan_batch, and ``(deid_message,
significant, pattern)`` from rewrite_matches and process_entry,
``significant`` holding one ``(value, symbol, slot)`` triple
(Significant) per significant match.

Scanning skips a rule whose prefilter rules it out. The prefilter is a
necessary condition for the rule's pattern to match anywhere in a message,
written over literal substrings (see TermRule.prefilter); it is never
sufficient, so skipping cannot change a match. One walk of the pattern's
parse tree, when the rule is built, derives both the prefilter and whether
the rule is batch-safe (see _pattern_facts).

Many messages can be scanned at once with scan_batch: batch_candidates
finds every rule's matches in the messages joined by "\\n", and one walk
over them picks each message's matches; the joined-text offsets stay
inside this module. A rule that can neither match nor assert "\\n" (see
TermRule.batch_pattern) runs once over the joined text, where its matches
are exactly its matches in each message; any other rule runs once per
message.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .model import TermClass

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

# Character categories of the parse tree, split by whether "\n" is in them.
_NEWLINE_CATEGORIES = {"CATEGORY_SPACE", "CATEGORY_NOT_DIGIT", "CATEGORY_NOT_WORD", "CATEGORY_LINEBREAK"}
_NO_NEWLINE_CATEGORIES = {"CATEGORY_DIGIT", "CATEGORY_NOT_SPACE", "CATEGORY_WORD", "CATEGORY_NOT_LINEBREAK"}
# The anchors that tell a message's ends from a "\n" even under MULTILINE: \A and \Z.
_STRING_ANCHORS = {"AT_BEGINNING_STRING", "AT_END_STRING"}

# One variable-term match: (start, end, rule index), in character offsets.
Match = tuple[int, int, int]
# One significant-term replacement: (original value, symbol, slot); see rewrite_matches.
Significant = tuple[str, str, int]


class ConfigError(ValueError):
    """Invalid rule definition or rule file."""


class GroupMapIncomplete(ConfigError):
    """Group mode met a value that has no group label and no default."""


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
    ``group_default`` when set. ``prefilter`` and ``batch_pattern`` come
    from one walk of the pattern's parse (see _pattern_facts): a message
    that fails ``prefilter`` cannot match. ``batch_pattern`` is the pattern
    with re.MULTILINE added, for one search over many messages joined by
    "\\n", or None when a node of the pattern could match or assert "\\n";
    batch_candidates then searches each message alone with ``pattern``.
    """

    name: str
    pattern: Union[str, re.Pattern]
    significant: bool = False
    mode: Optional[Mode] = None
    group_map: Optional[Mapping[str, str]] = None
    group_default: Optional[str] = None
    prefilter: Prefilter = field(init=False, repr=False, compare=False)
    batch_pattern: Optional[re.Pattern] = field(init=False, repr=False, compare=False)

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
        prefilter, batch_safe = _pattern_facts(parsed)
        object.__setattr__(self, "prefilter", prefilter)
        object.__setattr__(
            self, "batch_pattern", re.compile(pat.pattern, pat.flags | re.MULTILINE) if batch_safe else None
        )
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
        raise GroupMapIncomplete(f"rule {self.name}: a value has no group label and no '*' default")


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


def _pattern_facts(parsed: _sre_parse.SubPattern) -> tuple[Prefilter, bool]:
    """A pattern's prefilter and batch safety, from one walk of its parse tree ``parsed``.

    The prefilter is a necessary condition, over literal substrings, for
    the pattern to match: a run of literal characters is one required
    string; a sequence needs all its parts, an alternation one of its
    branches. Groups, atomic groups, positive lookarounds and repeats with
    a minimum of at least one require what their body does. Everything else
    (classes, categories, negative lookarounds, back references,
    conditionals, a scoped ``(?i:...)``) requires nothing. Any global
    IGNORECASE, or more than _PREFILTER_MAX_STRINGS strings, gives _ALWAYS.

    The pattern is batch-safe if no node, under the flags in force there,
    can match or assert "\\n". It then finds the same matches in a message
    alone as in messages joined by "\\n" with re.MULTILINE added: it cannot
    consume the separator, a lookaround that reaches it fails as it fails
    at a message's end, ``\\b`` and ``\\B`` see a non-word character there
    as they see an end, and MULTILINE's ``^`` and ``$`` hold exactly at each
    message's ends (re treats only "\\n" as a line break). A backreference
    repeats what its group, also checked, matched. So ``\\A``, ``\\Z``, ``.``
    under DOTALL, a negated literal other than ``[^\\n]``, a literal "\\n",
    and a class or category that holds "\\n" (``\\s``, ``\\D``, ``\\W``,
    ``[^a-z]``), inside lookarounds and scoped groups too, are unsafe, as is
    any node not named here.
    """
    flags = parsed.state.flags
    cnf, safe = _sequence_facts(parsed, flags)
    if flags & re.IGNORECASE or _cnf_size(cnf) > _PREFILTER_MAX_STRINGS:
        cnf = _ALWAYS
    return cnf, safe


def _cnf_size(cnf: Prefilter) -> int:
    return sum(len(clause) for clause in cnf)


def _sequence_facts(items, flags: int) -> tuple[Prefilter, bool]:
    """The AND of what the nodes ``items`` require, and whether all are batch-safe under ``flags``."""
    clauses: list[tuple[str, ...]] = []
    run: list[str] = []  # adjacent literals, which join into one string
    safe = True
    for op, av in items:
        name = op.name
        if name == "LITERAL":
            run.append(chr(av))
            safe &= av != 10
            continue
        if run:
            clauses.append(("".join(run),))
            run = []
        cnf = _ALWAYS
        if name == "NOT_LITERAL":
            node_safe = av == 10
        elif name == "ANY":
            node_safe = not flags & re.DOTALL
        elif name == "IN":
            node_safe = not _class_holds_newline(av)
        elif name == "AT":
            node_safe = av.name not in _STRING_ANCHORS
        elif name == "GROUPREF":
            node_safe = True
        elif name == "GROUPREF_EXISTS":
            _, yes, no = av
            node_safe = _sequence_facts(yes, flags)[1] and (no is None or _sequence_facts(no, flags)[1])
        elif name == "SUBPATTERN":
            _, add_flags, del_flags, body = av
            body_cnf, node_safe = _sequence_facts(body, (flags | add_flags) & ~del_flags)
            cnf = _ALWAYS if add_flags & re.IGNORECASE else body_cnf
        elif name == "ATOMIC_GROUP":
            cnf, node_safe = _sequence_facts(av, flags)
        elif name in ("ASSERT", "ASSERT_NOT"):  # a lookaround's text is in the message too
            body_cnf, node_safe = _sequence_facts(av[1], flags)
            cnf = body_cnf if name == "ASSERT" else _ALWAYS
        elif name in ("MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT"):
            body_cnf, node_safe = _sequence_facts(av[2], flags)
            cnf = body_cnf if av[0] >= 1 else _ALWAYS
        elif name == "BRANCH":
            # OR of CNFs: one clause per pair of clauses, their union; none once a branch has none.
            product: Optional[Prefilter] = None
            node_safe = True
            for branch in av[1]:
                branch_cnf, branch_safe = _sequence_facts(branch, flags)
                if product is not None:
                    pairs = (tuple(dict.fromkeys(a + b)) for a in product for b in branch_cnf)
                    branch_cnf = tuple(dict.fromkeys(pairs))
                product = branch_cnf if _cnf_size(branch_cnf) <= _PREFILTER_MAX_STRINGS else _ALWAYS
                node_safe &= branch_safe
            cnf = product
        else:
            node_safe = False
        clauses.extend(cnf)
        safe &= node_safe
    if run:
        clauses.append(("".join(run),))
    return tuple(dict.fromkeys(clauses)), safe


def _class_holds_newline(items) -> bool:
    """Whether the ``[...]`` class of parse-tree ``items`` matches "\\n"; True for what is not known."""
    negate = holds = False
    for op, av in items:
        name = op.name
        if name == "NEGATE":
            negate = True
        elif name == "LITERAL":
            holds = holds or av == 10
        elif name == "RANGE":
            holds = holds or av[0] <= 10 <= av[1]
        elif name == "CATEGORY" and av.name in _NEWLINE_CATEGORIES:
            holds = True
        elif not (name == "CATEGORY" and av.name in _NO_NEWLINE_CATEGORIES):
            return True
    return holds != negate


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
    found: dict[int, re.Match] = {}
    for i, rule in enumerate(rules):
        if _may_match(rule.prefilter, message):
            m = rule.pattern.search(message)
            if m is not None:
                found[i] = m
    matches: list[Match] = []
    pos = 0
    n = len(message)
    while found and pos < n:
        best: Optional[tuple[int, int, int]] = None  # (start, -length, rule_index)
        for i, m in list(found.items()):
            if m.start() < pos:
                m = rules[i].pattern.search(message, pos)
                if m is None:
                    del found[i]
                    continue
                found[i] = m
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


def batch_candidates(messages: Sequence[str], ruleset: RuleSet) -> list[tuple[int, int, int]]:
    """Every rule's matches in ``messages`` as sorted ``(start, -length, rule_index)`` triples.

    Offsets are into the messages joined by "\\n"; no message may hold
    "\\n". A rule with a batch_pattern runs one finditer over the joined
    text if its prefilter holds there: a rule that matches in one message
    meets its prefilter there, and so in the joined text, and none of its
    matches spans or touches a separator. Any other rule runs one finditer
    over each message that meets its prefilter. So each triple lies inside
    one message; scan_batch hands each message its own.
    """
    joined = "\n".join(messages)
    triples: list[tuple[int, int, int]] = []
    for index, rule in enumerate(ruleset.rules):
        if rule.batch_pattern is not None:
            if _may_match(rule.prefilter, joined):
                found = rule.batch_pattern.finditer(joined)
                triples += [(m.start(), m.start() - m.end(), index) for m in found]
            continue
        offset = 0
        for message in messages:
            if _may_match(rule.prefilter, message):
                found = rule.pattern.finditer(message)
                triples += [(offset + m.start(), m.start() - m.end(), index) for m in found]
            offset += len(message) + 1
    triples.sort()
    return triples


def scan_batch(messages: Sequence[str], ruleset: RuleSet) -> list[tuple[Match, ...]]:
    """scan_message's matches for each of ``messages``, none of which may hold "\\n".

    batch_candidates' sorted triples are walked once, each message taking
    those that start before its end. At each cursor the first one that
    starts there or later is taken. That is the match scan_message would
    take, because a rule's next finditer match after one that ends at or
    before the cursor is what searching from the cursor finds: whether a
    pattern matches at a position does not depend on where the search
    began. Only a candidate that straddles the cursor can hide a match, so
    a message where one does is scanned alone with scan_message.
    """
    candidates = batch_candidates(messages, ruleset)
    found: list[tuple[Match, ...]] = []
    i, n = 0, len(candidates)
    base = 0  # the offset of ``message`` in the joined text
    for message in messages:
        end = base + len(message)
        walked: Optional[list[Match]] = []
        pos = base
        while i < n and candidates[i][0] < end:
            start, neg_len, rule_index = candidates[i]
            i += 1
            if start >= pos:
                pos = start - neg_len
                walked.append((start - base, pos - base, rule_index))
            elif start - neg_len > pos:  # it straddles the cursor: walk no further here
                walked, pos = None, end
        found.append(scan_message(message, ruleset) if walked is None else tuple(walked))
        base = end + 1
    return found


def tokenize(message: str, ruleset: RuleSet) -> list[tuple[str, TermClass]]:
    """Split a message into (text, TermClass) pairs of constant and variable terms.

    The terms cover the message completely, in order, so joining their
    texts reproduces it; gaps between rule matches become constant terms.
    An empty message yields no terms.
    """
    terms: list[tuple[str, TermClass]] = []
    cursor = 0
    for start, end, rule_index in scan_message(message, ruleset):
        if start > cursor:
            terms.append((message[cursor:start], TermClass.CONSTANT))
        rule = ruleset.rules[rule_index]
        klass = TermClass.VARIABLE_SIGNIFICANT if rule.significant else TermClass.VARIABLE_INSIGNIFICANT
        terms.append((message[start:end], klass))
        cursor = end
    if cursor < len(message):
        terms.append((message[cursor:], TermClass.CONSTANT))
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
    # USER begins with what both of its forms, (?<=\()[A-Za-z]... and
    # (?<=\bfor )[A-Za-z]..., look behind and start with: one lookbehind at
    # each position, then each branch looks behind its letter once more.
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
                r"(?<=[( ])[A-Za-z]"
                r"(?:(?<=\([A-Za-z])[\w.-]*(?=\) (?:CMD|cmd) \()|(?<=\bfor [A-Za-z])[\w.-]*$)",
                significant=True,
            ),
            TermRule("PATH", r"/[^\s()]+", significant=False),
            TermRule("NUM", r"\d(?<=\b\d)\d*\b", significant=True),
        ),
        mode,
    )
