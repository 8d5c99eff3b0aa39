from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    BAD_RULE_VALUES,
    FIXTURES,
    SHELL_CMD_A,
    SHELL_CMD_B,
    SYMBOL_RE,
    UNKNOWN_RULE_KEYS,
    shell_cmd_rulesets,
)
from loganon import (
    ConfigError,
    GroupMapIncomplete,
    Mode,
    RuleSet,
    SymbolRegistry,
    TermClass,
    TermRule,
    default_ruleset,
    load_rules,
    loads_rules,
    process_entry,
    sanitize_message,
    tokenize,
)
from loganon import cli, hash_text
from loganon import rules as rules_module
from loganon.rules import DAEMON_NAMES, Match, scan_batch, scan_message


# --- tokenize ---------------------------------------------------------------

def test_tokenize_command_line():
    terms = tokenize("(siavash) CMD (/usr/bin/check)", default_ruleset())
    assert terms == [
        ("(", TermClass.CONSTANT),
        ("siavash", TermClass.VARIABLE_SIGNIFICANT),
        (") CMD (", TermClass.CONSTANT),
        ("/usr/bin/check", TermClass.VARIABLE_INSIGNIFICANT),
        (")", TermClass.CONSTANT),
    ]


def test_tokenize_empty_message():
    assert tokenize("", default_ruleset()) == []


def test_tokenize_no_matches_single_constant():
    terms = tokenize("disabling lock debugging due to kernel taint", default_ruleset())
    assert len(terms) == 1
    assert terms[0][1] is TermClass.CONSTANT


def test_tokenize_full_coverage_and_ordered_spans():
    msg = "(root) CMD (/bin/x) at 2018-01-30 from 10.0.0.1"
    terms = tokenize(msg, default_ruleset())
    assert "".join(text for text, _ in terms) == msg
    variables = [text for text, klass in terms if klass is not TermClass.CONSTANT]
    assert variables == ["root", "/bin/x", "2018-01-30", "10.0.0.1"]


def test_tokenize_byte_spans_non_ascii():
    rules = RuleSet((TermRule("NUM", r"\b\d+\b", significant=True),))
    msg = "héllo 42 wörld"
    terms = tokenize(msg, rules)
    assert "".join(text for text, _ in terms) == msg
    assert [klass for _, klass in terms] == [
        TermClass.CONSTANT,
        TermClass.VARIABLE_SIGNIFICANT,
        TermClass.CONSTANT,
    ]


def test_leftmost_longest_beats_later_shorter():
    # date starts where the bare integer would; the longer match wins
    rules = RuleSet(
        (
            TermRule("NUM", r"\b\d+\b", significant=True),
            TermRule("TIME", r"\b\d{4}-\d{2}-\d{2}\b"),
        )
    )
    terms = tokenize("on 2018-01-30 ok", rules)
    assert [text for text, klass in terms if klass is not TermClass.CONSTANT] == ["2018-01-30"]


def test_tie_at_same_span_goes_to_earlier_rule():
    rules = RuleSet(
        (
            TermRule("AAA", r"\bcat\b", significant=True),
            TermRule("BBB", r"\bcat\b", significant=True),
        )
    )
    assert process_entry("a cat sat", rules.with_mode(Mode.GLOBAL))[0] == "a #AAA_# sat"


# --- de-identification ----------------------------------------------------

def test_deidentify_global_shell_cmd():
    deid_message, significant, _ = process_entry(SHELL_CMD_A, shell_cmd_rulesets()["global"])
    assert deid_message == "(#USR_#) cmd (#PATH# > #PATH#)"
    assert [(value, symbol) for value, symbol, _ in significant] == [("siavash", "#USR_#")]


def test_deidentify_individual_user_only():
    deid_message = process_entry(SHELL_CMD_A, shell_cmd_rulesets()["type3"])[0]
    assert deid_message == "(#USR1#) cmd (#PATH# > #PATH#)"


def test_deidentify_fixed_point_without_variables():
    msg = "nothing variable here"
    deid_message, significant, _ = process_entry(msg, shell_cmd_rulesets()["global"])
    assert deid_message == msg
    assert significant == ()


def test_deidentify_keeps_timestamp_and_source(tmp_path):
    # process_entry takes only the message; anonymize writes the line's own timestamp and source.
    log = tmp_path / "in.log"
    log.write_text(f"99 T-77 {SHELL_CMD_A}\n", encoding="utf-8")
    assert cli.main(["anonymize", str(log), "--out", str(tmp_path)]) == 0
    deid_message, _, pattern = process_entry(SHELL_CMD_A, default_ruleset())
    encoded = (tmp_path / "encoded.log").read_text(encoding="utf-8")
    assert encoded == f"99 T-77 {hash_text(deid_message)} {hash_text(pattern)}\n"


def test_individual_indices_first_occurrence_across_corpus():
    rules = RuleSet((TermRule("USER", r"\b[a-z]+\b", significant=True),), Mode.INDIVIDUAL)
    registry = SymbolRegistry()
    messages = ["alice", "bob", "alice", "carol bob"]
    out = [process_entry(m, rules, registry)[0] for m in messages]
    assert out == ["#USER1#", "#USER2#", "#USER1#", "#USER3# #USER2#"]


def test_individual_indices_without_registry_are_per_call():
    rules = RuleSet((TermRule("USER", r"\b[a-z]+\b", significant=True),), Mode.INDIVIDUAL)
    assert process_entry("alice bob alice", rules)[0] == "#USER1# #USER2# #USER1#"
    assert process_entry("bob", rules)[0] == "#USER1#"


def test_group_mode_labels_and_default():
    rules = RuleSet(
        (
            TermRule(
                "USER",
                r"\b[a-z]+\b",
                significant=True,
                group_map={"root": "p"},
                group_default="n",
            ),
        ),
        Mode.GROUP,
    )
    assert process_entry("root", rules)[0] == "#USERp#"
    assert process_entry("guest", rules)[0] == "#USERn#"


def test_group_mode_without_map_falls_back_to_global():
    rules = RuleSet((TermRule("DAEM", r"\bcrond\b", significant=True),), Mode.GROUP)
    assert process_entry("crond started", rules)[0] == "#DAEM_# started"


def test_group_mode_incomplete_map_raises():
    rules = RuleSet(
        (TermRule("USER", r"\b[a-z]+\b", significant=True, group_map={"root": "p"}),),
        Mode.GROUP,
    )
    with pytest.raises(GroupMapIncomplete):
        process_entry("guest", rules)


USER_RULE = dict(name="USER", pattern=r"\b[a-z]+\b", significant=True)


def test_ruleset_string_mode_is_coerced():
    rules = RuleSet((TermRule(**USER_RULE),), "global")
    assert rules.mode is Mode.GLOBAL
    assert process_entry("alice bob", rules)[0] == "#USER_# #USER_#"


def test_rule_string_mode_is_coerced():
    rule = TermRule(**USER_RULE, mode="global")
    assert rule.mode is Mode.GLOBAL
    rules = RuleSet((rule,), Mode.INDIVIDUAL)
    assert process_entry("alice bob", rules)[0] == "#USER_# #USER_#"


def test_ruleset_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="^unknown mode 'bogus'$"):
        RuleSet((TermRule(**USER_RULE),), "bogus")


def test_rule_unknown_mode_rejected():
    with pytest.raises(ConfigError, match="^rule USER: unknown mode 'bogus'$"):
        TermRule(**USER_RULE, mode="bogus")


def test_insignificant_terms_ignore_mode():
    rules = RuleSet((TermRule("PATH", r"/[^\s()]+"),), Mode.INDIVIDUAL)
    deid_message, significant, _ = process_entry("run /bin/a then /bin/b", rules)
    assert deid_message == "run #PATH# then #PATH#"
    assert significant == ()


def _assert_idempotent(rules: RuleSet, message: str) -> None:
    registry = SymbolRegistry()
    d1 = process_entry(message, rules, registry)[0]
    d2, significant, _ = process_entry(d1, rules, registry)
    assert d2 == d1
    assert significant == ()


GROUP_LABELS = st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True)


@given(root_label=GROUP_LABELS, default_label=GROUP_LABELS, from_file=st.booleans())
def test_idempotent_on_own_output(root_label, default_label, from_file):
    _assert_idempotent(shell_cmd_rulesets()["type2"], SHELL_CMD_A)
    if from_file:
        rules = loads_rules(
            "[ruleset]\nmode = group\n\n"
            "[rule USR]\npattern = (?<=\\()[a-z]+(?=\\) cmd \\()\nsignificant = yes\n\n"
            "[rule PATH]\npattern = /[^\\s()]+\nsignificant = yes\n\n"
            f"[groups USR]\nsiavash = {root_label}\n* = {default_label}\n"
        )
    else:
        user = TermRule(
            "USR",
            r"(?<=\()[a-z]+(?=\) cmd \()",
            significant=True,
            group_map={"siavash": root_label},
            group_default=default_label,
        )
        rules = RuleSet((user, TermRule("PATH", r"/[^\s()]+", significant=True)), Mode.GROUP)
    for message in (SHELL_CMD_A, SHELL_CMD_B):
        _assert_idempotent(rules, message)


@pytest.mark.parametrize("label", ["a-b", "a b", "a#b", "é", "a.b", ""])
def test_group_label_outside_symbol_alphabet_rejected(label):
    with pytest.raises(ConfigError, match="group label"):
        TermRule("USER", r"\b[a-z]+\b", significant=True, group_map={"root": label})
    with pytest.raises(ConfigError, match="group label"):
        TermRule("USER", r"\b[a-z]+\b", significant=True, group_default=label)
    for table in (f"root = {label}", f"* = {label}"):
        with pytest.raises(ConfigError, match="group label"):
            loads_rules(
                "[rule USER]\npattern = \\b[a-z]+\\b\nsignificant = yes\n\n"
                f"[groups USER]\n{table}\n"
            )


# --- scan semantics ---------------------------------------------------------

# Rule patterns over a tiny alphabet, chosen so that random rulesets overlap,
# tie on length and look around the cursor. None can match the empty string:
# TermRule rejects such patterns.
# The second group exercises what the rule prefilter models or falls back
# on: classes, alternations, lookarounds, repeats, case folding, \b and \d.
SCAN_PATTERNS = (
    r"a", r"a+", r"ab", r"ba", r"b+a?", r"[ab]{2}", r"a|ab", r"ab|a", r"a+b+",
    r"(?<=a)b+", r"(?<=b)a", r"a(?=b)", r"\ba+", r"\bb", r"a\b", r"a*b",
    r"#", r"x+", r"\w+", r"[^ab]+",
    r"[aA]b", r"(?:ab|ba)+", r"a{2,}", r"(?:a|x)b|b#", r"(?<=a|b)a", r"(?<!a)b",
    r"a(?!b)", r"(?i)ab", r"(?i:a)b", r"(?i:ab)|x", r"\d+", r"\b\d\b", r"a\d?b",
    r"(a)\1", r"(?=ab)a", r"(?<=\d)a", r"b(?:a|1)+?", r"x|ab", r"#b|1a",
)


def oracle_scan(message: str, ruleset: RuleSet) -> tuple[Match, ...]:
    """Brute force: every start, every rule; leftmost-longest, ties to the lower index."""
    found: list[Match] = []
    start = 0
    while start < len(message):
        best = None
        for index, rule in enumerate(ruleset.rules):
            m = rule.pattern.match(message, start)
            if m is None or m.end() == start:
                continue
            if best is None or m.end() > best[1]:
                best = (start, m.end(), index)
        if best is None:
            start += 1
        else:
            found.append(best)
            start = best[1]
    return tuple(found)


@settings(max_examples=1000)
@given(
    patterns=st.lists(st.sampled_from(SCAN_PATTERNS), min_size=1, max_size=5),
    message=st.text(alphabet="ab x#A1\u0663", max_size=24),
)
def test_scan_matches_brute_force_oracle(patterns, message):
    ruleset = RuleSet(tuple(TermRule(f"R{i}", p) for i, p in enumerate(patterns)))
    assert scan_message(message, ruleset) == oracle_scan(message, ruleset)


# --- batch scan -------------------------------------------------------------

# Patterns next to the separator: anchors, \A and \Z, the dot with and
# without DOTALL, \s, \W, \D, negated literals and classes, \B, and
# lookarounds over them. Of these, ^ and $ (run under MULTILINE), the plain
# dot, [^\n], \S and \B are batch-safe; the rest are not.
SEPARATOR_PATTERNS = (
    r"^a", r"a$", r"b$|^b", r"\Aa", r"a\Z", r"(?s)a.", r"a.", r"(?s:.)b", r"\s", r"a\s*b",
    r"[^a]", r"[^ab]+", r"[^\n]a", r"\Sb", r"\W", r"\D+", r"\Ba", r"a\B",
    r"(?<=\s)a", r"a(?=\s)", r"(?<!\s)b", r"b(?!\S)", r"(?<=^)b", r"b(?=$)", r"(?<=\A)a",
    r"a(?=\Z)", r"(?<=[^a])b", r"a(?![^b])", r"(?<=.)a", r"a(?!.)",
)


@settings(max_examples=1000)
@given(
    patterns=st.lists(st.sampled_from(SCAN_PATTERNS + SEPARATOR_PATTERNS), min_size=1, max_size=4),
    messages=st.lists(st.text(alphabet="ab x#A1\u0663\u2028\u0085\u001c", max_size=12),
                      min_size=1, max_size=6),
)
@example(patterns=["ab", "b+a?"], messages=["abbb", "xab"])
@example(patterns=["ab", r"b[^x]?"], messages=["abbb", "xab"])
def test_batch_scan_matches_per_message_scan(patterns, messages):
    ruleset = RuleSet(tuple(TermRule(f"R{i}", p) for i, p in enumerate(patterns)))
    distinct = list(dict.fromkeys(messages))
    found = scan_batch(distinct, ruleset)
    assert found == [scan_message(message, ruleset) for message in distinct]
    assert found == [oracle_scan(message, ruleset) for message in distinct]
    # Every rule's candidates, batch-safe or not, are its matches in each
    # message; each batch-safe rule, whatever the others, finds exactly
    # those in the joined text.
    joined = "\n".join(distinct)
    candidates = rules_module.batch_candidates(distinct, ruleset)
    for index, rule in enumerate(ruleset.rules):
        expected, offset = [], 0
        for message in distinct:
            expected.extend((offset + m.start(), offset + m.end()) for m in rule.pattern.finditer(message))
            offset += len(message) + 1
        assert [(start, start - neg_len) for start, neg_len, i in candidates if i == index] == expected
        if rule.batch_pattern is not None:
            assert [m.span() for m in rule.batch_pattern.finditer(joined)] == expected


def test_batch_walk_gives_way_when_a_candidate_straddles_the_cursor(monkeypatch):
    """b+a? matches bbb from 1, across the end of ab; its match from 2 shows only in a search."""
    ruleset = RuleSet((TermRule("R0", "ab"), TermRule("R1", "b+a?")))
    candidates = rules_module.batch_candidates(["abbb", "xab"], ruleset)
    assert candidates[:2] == [(0, -2, 0), (1, -3, 1)]
    alone = []

    def spy(message, ruleset):
        alone.append(message)
        return scan_message(message, ruleset)

    monkeypatch.setattr(rules_module, "scan_message", spy)
    assert scan_batch(["abbb", "xab"], ruleset) == [((0, 2, 0), (2, 4, 1)), ((1, 3, 0),)]
    assert alone == ["abbb"]


@pytest.mark.parametrize(
    "pattern",
    [
        r"\Aa", r"a\Z",  # string anchors
        r"(?s)a.", r"(?s:.)a", r"a(?s:.)",  # the dot under DOTALL
        r"a\n", r"[\n]a",  # a literal "\n"
        r"[^a]", r"a[^b]",  # negated literals
        r"\s", r"\D", r"\W", r"[\s\w]", r"[^\d]", r"[^a-z]", r"[\x00-\x20]",  # classes holding "\n"
        r"(?<=\s)a", r"a(?=\W)", r"(?<!\D)a", r"a(?!\s)", r"(?<=\A)a", r"a(?=\Z)",  # lookarounds over them
        r"(?:a|\s)+", r"(?>a\s)", r"a(?:b|[^c])*", r"(a)?(?(1)b|\sb)",  # nested in other nodes
    ],
)
def test_batch_unsafe_construct(pattern):
    assert TermRule("R", pattern).batch_pattern is None


@pytest.mark.parametrize(
    "pattern",
    [r"^a", r"a$", r"a.", r"(?s)(?-s:.)a", r"[^\n]a", r"\S", r"\w", r"\d", r"[^\s()]+", r"\ba\B",
     r"(a)\1", r"(a)?(?(1)b|c)", r"(?i)[^\n]a", r"(?<=[( ])x(?!\d)", r"(?m)^a"],
)
def test_batch_safe_construct(pattern):
    rule = TermRule("R", pattern)
    assert rule.batch_pattern.pattern == pattern
    assert rule.batch_pattern.flags == rule.pattern.flags | re.MULTILINE


def test_builtin_rules_are_batch_safe():
    """Every built-in rule takes the batch scan, so the fast path cannot quietly fall away."""
    ruleset = default_ruleset()
    assert [rule.name for rule in ruleset.rules if rule.batch_pattern is None] == []


def test_mixed_ruleset_hands_every_miss_its_candidates(cron_ruleset, cron_entries, monkeypatch):
    """cron_sample.rules' PATH rule can match "\\n"; every miss still gets its candidates."""
    assert [rule.name for rule in cron_ruleset.rules if rule.batch_pattern is None] == ["PATH"]
    alone = []

    def spy(message, ruleset):
        alone.append(message)
        return scan_message(message, ruleset)

    monkeypatch.setattr(rules_module, "scan_message", spy)
    messages = list(dict.fromkeys(sanitize_message(message) for _, _, message in cron_entries))
    found = scan_batch(messages, cron_ruleset)
    assert alone == []
    assert any(found)
    assert found == [oracle_scan(message, cron_ruleset) for message in messages]


# --- rule prefilter --------------------------------------------------------

def holds(prefilter, message: str) -> bool:
    """The prefilter's meaning: every clause has a string that occurs in the message."""
    return all(any(text in message for text in clause) for clause in prefilter)


def test_default_rule_prefilters():
    by_name = {rule.name: rule.prefilter for rule in default_ruleset().rules}
    assert len(by_name["DAEM"]) == 1
    assert sorted(by_name["DAEM"][0]) == sorted(DAEMON_NAMES)
    assert by_name["IPv4"] == ((".",),)
    assert by_name["TIME"] == (("-",),)
    # ("(" and ") " and ("CMD" or "cmd") and " (") or "for ", in clause form.
    assert by_name["USER"] == (
        ("(", "for "),
        (") ", "for "),
        ("CMD", "cmd", "for "),
        (" (", "for "),
    )
    assert by_name["PATH"] == (("/",),)
    assert by_name["NUM"] == ()  # \d is Unicode: no literal is required


def assert_same_matches(rewritten: re.Pattern, original: re.Pattern, text: str) -> None:
    """The two patterns find the same spans, by finditer and by a search from every position."""
    assert [m.span() for m in rewritten.finditer(text)] == [m.span() for m in original.finditer(text)]
    for pos in range(len(text) + 1):
        got, want = rewritten.search(text, pos), original.search(text, pos)
        assert (got and got.span()) == (want and want.span())


# The word-boundary-first texts that the built-in NUM and IPv4 rules were
# rewritten from; the rewritten texts begin with \d so that re's search can
# skip ahead to a digit.
WORD_BOUNDARY_FORMS = {"NUM": r"\b\d+\b", "IPv4": r"\b(?:\d{1,3}\.){3}\d{1,3}\b"}


@settings(max_examples=1000)
@given(
    st.lists(
        st.one_of(st.text("0123456789", min_size=1, max_size=4),
                  st.sampled_from(["٣", "１", "é", "_", ".", "-", " "])),
        max_size=12,
    ).map("".join)
)
def test_builtin_digit_rules_equal_their_word_boundary_forms(text):
    builtin = {rule.name: rule.pattern for rule in default_ruleset().rules}
    for name, form in WORD_BOUNDARY_FORMS.items():
        assert_same_matches(builtin[name], re.compile(form), text)


# The text the built-in USER rule was rewritten from; the rewritten text
# begins with the lookbehind and the letter that both branches start with.
USER_LOOKBEHIND_FORM = r"(?<=\()[A-Za-z][\w.-]*(?=\) (?:CMD|cmd) \()|(?<=\bfor )[A-Za-z][\w.-]*$"


@settings(max_examples=1000)
@given(
    st.lists(
        st.sampled_from(["(", ")", "for ", "for", "xfor ", " ", "\n", ") CMD (", ") cmd (", ") Cmd (",
                         "a", "Zq", "é", "Ωx", "ß", "u_1", ".", "-", "7"]),
        max_size=10,
    ).map("".join)
)
def test_builtin_user_rule_equals_its_lookbehind_form(text):
    builtin = {rule.name: rule.pattern for rule in default_ruleset().rules}
    assert_same_matches(builtin["USER"], re.compile(USER_LOOKBEHIND_FORM), text)


PAIRS_16 = "".join(f"(?:a{i:x}|b{i:x})" for i in range(16))


@pytest.mark.parametrize(
    "pattern, prefilter",
    [
        (r"abc", (("abc",),)),
        (r"ab\dcd", (("ab",), ("cd",))),
        (r"(?:ab|cd)x", (("ab", "cd"), ("x",))),
        (r"(?<=ab)c(?=de)", (("ab",), ("c",), ("de",))),
        (r"(?:ab)+c", (("ab",), ("c",))),
        (r"(?:ab){0,3}c", (("c",),)),
        (r"(?:ab)*?c", (("c",),)),
        (r"(?<!ab)c(?!de)", (("c",),)),
        (r"[ab]c", (("c",),)),
        (r"(?:ab|c*)d", (("d",),)),
        (r"(ab)\1", (("ab",),)),
        (r"(?i:ab)c", (("c",),)),
        (r"(?i)abc", ()),
        (r"(?i)ab(?-i:cd)", ()),
        (re.compile("abc", re.IGNORECASE), ()),
        (re.compile("a b", re.VERBOSE), (("ab",),)),
        (r"(?x) a b  c", (("abc",),)),
        (r"\d+", ()),
        (r"(?:aa|bb)" * 3, (("aa", "bb"),)),
        (PAIRS_16, tuple((f"a{i:x}", f"b{i:x}") for i in range(16))),
        (PAIRS_16 + "(?:cc|dd)", ()),  # 34 strings: oversized
        # An alternation of two 6-clause conditions would have 36 clauses.
        (f"(?:{PAIRS_16[:54]}|{PAIRS_16[54:108]})y", (("y",),)),
    ],
)
def test_rule_prefilter_shapes(pattern, prefilter):
    assert TermRule("R", pattern).prefilter == prefilter


@pytest.mark.skipif(sys.version_info < (3, 11), reason="atomic groups and possessive repeats need 3.11")
def test_rule_prefilter_atomic_and_possessive():
    assert TermRule("R", r"(?>ab|cd)e").prefilter == (("ab", "cd"), ("e",))
    assert TermRule("R", r"(?:ab)++c").prefilter == (("ab",), ("c",))


LOOKBEHINDS = (r"(?<=a)", r"(?<=ab)", r"(?<=a|b)", r"(?<!b)", r"(?<=\d)", r"(?<=(?i:a)b)", r"(?<=\bA)")


def regex_strategy(extra_atoms: tuple[str, ...] = ()) -> st.SearchStrategy[str]:
    atoms = st.sampled_from(
        ("a", "b", "ab", "ba", "A", "1", "-", r"\d", r"[ab]", r"[^a]", ".", r"\b", r"\w", r"\s", "$")
        + LOOKBEHINDS
        + extra_atoms
    )

    def compound(inner: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
        return st.one_of(
            st.lists(inner, min_size=2, max_size=3).map("".join),
            st.lists(inner, min_size=2, max_size=3).map(lambda xs: "(?:" + "|".join(xs) + ")"),
            inner.map(lambda x: f"({x})"),
            st.tuples(inner, st.sampled_from(["*", "+", "?", "{2}", "{0,2}", "{1,3}", "+?", "??"])).map(
                lambda t: f"(?:{t[0]}){t[1]}"
            ),
            inner.map(lambda x: f"(?={x})"),
            inner.map(lambda x: f"(?!{x})"),
            inner.map(lambda x: f"(?i:{x})"),
        )

    return st.recursive(atoms, compound, max_leaves=8)


MESSAGE_PIECES = ("a", "b", "A", "B", "1", "٣", "\u0967", " ", "-", "ab", "ba", "x")


@settings(max_examples=2000)
@given(
    regex=regex_strategy(),
    ignorecase=st.booleans(),
    message=st.lists(st.sampled_from(MESSAGE_PIECES), max_size=10).map("".join),
)
def test_prefilter_false_means_no_match(regex, ignorecase, message):
    try:
        pattern = re.compile(f"(?i){regex}" if ignorecase else regex)
    except re.error:
        return  # invalid regex
    # From the walk of the parse directly, not through TermRule, so that
    # patterns whose shortest match is empty, which TermRule rejects, are
    # checked too.
    prefilter, _ = rules_module._pattern_facts(rules_module._sre_parse.parse(pattern.pattern, pattern.flags))
    if not holds(prefilter, message):
        assert pattern.search(message) is None


# Atoms that touch the "\n" between joined messages, batch-safe or not.
SEPARATOR_ATOMS = (r"\A", r"\Z", "^", r"(?s:.)", r"\n", r"[^\n]", r"\S", r"\W", r"\B")
# One of these next to a drawn regex gives it a shortest match of at least
# one character, so that TermRule accepts it.
CONSUMING_ATOMS = ("a", "b", ".", r"\s", r"\n", r"[^\n]", r"\S", r"\W", r"(?s:.)")


@settings(max_examples=1500)
@given(
    regex=regex_strategy(SEPARATOR_ATOMS),
    atom=st.sampled_from(CONSUMING_ATOMS),
    atom_first=st.booleans(),
    messages=st.lists(st.lists(st.sampled_from(MESSAGE_PIECES), max_size=6).map("".join), min_size=2, max_size=5),
)
def test_batch_safe_random_regex_matches_as_in_each_message(regex, atom, atom_first, messages):
    """Checked against re itself: a batch-safe rule's search over the messages
    joined by "\\n" finds exactly each message's own matches, shifted."""
    try:
        rule = TermRule("R", atom + regex if atom_first else regex + atom)
    except ConfigError:
        return  # not a valid regex
    if rule.batch_pattern is None:
        return
    expected, offset = [], 0
    for message in messages:
        expected.extend((offset + m.start(), offset + m.end()) for m in rule.pattern.finditer(message))
        offset += len(message) + 1
    assert [m.span() for m in rule.batch_pattern.finditer("\n".join(messages))] == expected


# --- event patterns ---------------------------------------------------------

def test_event_pattern_global_form():
    e = "(siavash) CMD (run-parts /etc/cron.hourly)"
    rules = RuleSet(
        (
            TermRule("USER", r"(?<=\()[a-z]+(?=\) CMD \()", significant=True),
            TermRule("PATH", r"(?<=CMD \()[^()]+(?=\))"),
        )
    )
    assert process_entry(e, rules)[2] == "(#USER_#) CMD (#PATH#)"


def test_event_pattern_equal_for_same_shape_messages():
    rules = shell_cmd_rulesets()["global"]
    pattern_a = process_entry(SHELL_CMD_A, rules)[2]
    assert pattern_a == process_entry(SHELL_CMD_B, rules)[2]


def test_event_pattern_mode_invariant():
    rules = shell_cmd_rulesets()["type2"]  # individual everywhere
    expected = "(#USR_#) cmd (#PATH_# > #PATH_#)"
    for mode in Mode:
        assert process_entry(SHELL_CMD_A, rules.with_mode(mode))[2] == expected


def test_event_pattern_constant_only_message():
    msg = "disabling lock debugging due to kernel taint"
    assert process_entry(msg, default_ruleset())[2] == msg


def test_equal_messages_equal_rewrites():
    rules = default_ruleset(Mode.INDIVIDUAL)
    registry = SymbolRegistry()
    a = process_entry("(u) CMD (/x) 5", rules, registry)[0]
    b = process_entry("(u) CMD (/x) 5", rules, registry)[0]
    assert a == b


# --- sanitization -----------------------------------------------------------

def test_sanitize_replaces_stray_hash():
    assert sanitize_message("issue #42 seen") == "issue ?42 seen"


def test_sanitize_preserves_wellformed_symbols():
    assert sanitize_message("(#USR1#) cmd (#PATH#)") == "(#USR1#) cmd (#PATH#)"


def test_sanitize_mixed():
    assert sanitize_message("x # y #PATH# z ##") == "x ? y #PATH# z ??"


SYMBOLS = st.from_regex(r"#[A-Z][A-Za-z0-9]{0,7}[A-Za-z0-9_]*#", fullmatch=True)
HASH_RUNS = st.text(alphabet="#", min_size=1, max_size=4)
NON_ASCII = st.text(alphabet=st.sampled_from("é€ü ÿ\U0001F600a_9Z"), max_size=6)


@given(st.lists(st.one_of(SYMBOLS, HASH_RUNS, NON_ASCII), max_size=8).map("".join))
def test_sanitize_keeps_utf8_length(message):
    # The storage report counts the sanitized message in place of the raw one.
    assert len(sanitize_message(message).encode("utf-8")) == len(message.encode("utf-8"))


def test_deidentify_sanitizes_values():
    rules = RuleSet((TermRule("TAG", r"\bid=\S+", significant=True),), Mode.INDIVIDUAL)
    significant = process_entry("seen id=a#b here", rules)[1]
    assert significant[0][0] == "id=a?b"


# --- granularity ordering ---------------------------------------------------

@st.composite
def small_corpus(draw):
    users = ["ann", "bob", "cal", "dee", "eve"]
    paths = ["/bin/a", "/bin/b", "/opt/c"]
    n = draw(st.integers(min_value=1, max_value=25))
    messages = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0:
            messages.append(
                f"({draw(st.sampled_from(users))}) cmd ({draw(st.sampled_from(paths))})"
            )
        elif kind == 1:
            messages.append(f"starting job {draw(st.integers(min_value=0, max_value=9))}")
        else:
            messages.append(draw(st.sampled_from(["idle", "busy", "sync done"])))
    return messages


GRANULARITY_RULES = (
    TermRule(
        "USR",
        r"(?<=\()[a-z]+(?=\) cmd \()",
        significant=True,
        group_map={"ann": "a", "bob": "a"},
        group_default="z",
    ),
    TermRule("PATH", r"/[^\s()]+"),
    TermRule("NUM", r"\b\d+\b", significant=True),
)


def distinct_rewrites(messages: list[str], mode: Mode) -> int:
    rules = RuleSet(GRANULARITY_RULES, mode)
    registry = SymbolRegistry()
    return len({process_entry(m, rules, registry)[0] for m in messages})


@given(small_corpus())
def test_granularity_monotonicity(messages):
    n_global = distinct_rewrites(messages, Mode.GLOBAL)
    n_group = distinct_rewrites(messages, Mode.GROUP)
    n_individual = distinct_rewrites(messages, Mode.INDIVIDUAL)
    assert n_global <= n_group <= n_individual <= len(set(messages))


# --- symbol plan against the per-match reference ----------------------------

def reference_symbol(rule: TermRule, value: str, mode: Mode, registry) -> str:
    """Each match's de-identified symbol, resolved from the rule and mode every time."""
    if not rule.significant:
        return f"#{rule.name}#"
    if mode is Mode.GROUP and rule.group_map is None and rule.group_default is None:
        mode = Mode.GLOBAL
    if mode is Mode.GLOBAL:
        return f"#{rule.name}_#"
    if mode is Mode.GROUP:
        return f"#{rule.name}{rule.group_label(value)}#"
    return f"#{rule.name}{registry.index(rule.name, value)}#"


def reference_rewrite(sanitized, matches, ruleset, registry):
    deid, pattern, significant = [], [], []
    cursor = 0
    for start, end, rule_index in matches:
        constant = sanitized[cursor:start]
        deid.append(constant)
        pattern.append(constant)
        # The slot of a value is the number of symbols before it in the pattern.
        slot = len(SYMBOL_RE.findall("".join(pattern)))
        rule = ruleset.rules[rule_index]
        value = sanitized[start:end]
        mode = rule.mode if rule.mode is not None else ruleset.mode
        if registry is None and rule.significant and mode is Mode.INDIVIDUAL:
            registry = SymbolRegistry()
        symbol = reference_symbol(rule, value, mode, registry)
        deid.append(symbol)
        pattern.append(f"#{rule.name}_#" if rule.significant else f"#{rule.name}#")
        if rule.significant:
            significant.append((value, symbol, slot))
        cursor = end
    deid.append(sanitized[cursor:])
    pattern.append(sanitized[cursor:])
    return "".join(deid), tuple(significant), "".join(pattern)


PLAN_PATTERNS = (r"a+", r"b", r"\d+", r"ab", r"[ab]1", r"(?<= )[ab]+")
PLAN_VALUES = ("a", "aa", "b", "1", "11", "ab", "a1", "b1")
PLAN_LABELS = ("p", "n", "x_1")


@st.composite
def plan_rulesets(draw) -> RuleSet:
    rules = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        group_map = draw(st.none() | st.dictionaries(
            st.sampled_from(PLAN_VALUES), st.sampled_from(PLAN_LABELS), max_size=4
        ))
        rules.append(TermRule(
            f"R{i}",
            draw(st.sampled_from(PLAN_PATTERNS)),
            significant=draw(st.booleans()),
            mode=draw(st.none() | st.sampled_from(Mode)),
            group_map=group_map or None,
            group_default=draw(st.none() | st.sampled_from(PLAN_LABELS)),  # the `*` row
        ))
    return RuleSet(tuple(rules), draw(st.sampled_from(Mode)))


def outcome(rewrite, *args):
    try:
        deid, significant, pattern = rewrite(*args)
    except GroupMapIncomplete as exc:
        return "GroupMapIncomplete", str(exc)
    return deid, tuple(map(tuple, significant)), pattern


@settings(max_examples=400)
@given(
    plan_rulesets(),
    st.lists(st.text("ab1 #", max_size=12), min_size=1, max_size=6),
    st.booleans(),
)
def test_symbol_plan_matches_per_match_reference(ruleset, messages, shared):
    """rewrite_matches with the per-rule plan equals resolving every match from scratch."""
    registries = (SymbolRegistry(), SymbolRegistry()) if shared else (None, None)
    for message in messages:
        sanitized = sanitize_message(message)
        matches = scan_message(sanitized, ruleset)
        got = outcome(rules_module.rewrite_matches, sanitized, matches, ruleset, registries[0])
        want = outcome(reference_rewrite, sanitized, matches, ruleset, registries[1])
        assert got == want
        if shared:
            assert list(registries[0].rows()) == list(registries[1].rows())


# --- rule definitions and files ----------------------------------------------

@pytest.mark.parametrize("name", ["lower", "TOOLONGNAME", "BAD#", "", "9X"])
def test_bad_rule_names_rejected(name):
    with pytest.raises(ConfigError):
        TermRule(name, r"x")


# Each can match the empty string somewhere, though only x* matches "".
@pytest.mark.parametrize("pattern", [r"x*", r"\b", r"(?<=a)", r"(?<=a)b*", r"(?<= )x*", r"(?=b)a?"])
def test_empty_matching_pattern_rejected(pattern):
    with pytest.raises(ConfigError, match="^rule AAA: pattern must not match the empty string$"):
        TermRule("AAA", pattern)


def test_bad_regex_rejected():
    with pytest.raises(ConfigError):
        TermRule("AAA", r"(")


def test_duplicate_rule_names_rejected():
    with pytest.raises(ConfigError):
        RuleSet((TermRule("AAA", r"x"), TermRule("AAA", r"y")))


def test_mixed_case_name_allowed():
    assert TermRule("IPv4", r"\d+\.\d+").name == "IPv4"


def test_loads_rules_literal_ini():
    parsed = loads_rules(
        "[ruleset]\n"
        "mode = group\n"
        "\n"
        "[rule USER]\n"
        "pattern = (?<=\\()[a-z]+(?=\\) CMD \\()\n"
        "significant = yes\n"
        "\n"
        "[rule PATH]\n"
        "pattern = /[^\\s()]+\n"
        "significant = no\n"
        "mode = global\n"
        "\n"
        "[groups USER]\n"
        "root = p\n"
        "* = n\n"
    )
    assert parsed.mode is Mode.GROUP
    assert [r.name for r in parsed.rules] == ["USER", "PATH"]
    user, path = parsed.rules
    assert user.pattern.pattern == r"(?<=\()[a-z]+(?=\) CMD \()"
    assert user.significant and not path.significant
    assert user.group_map == {"root": "p"}
    assert user.group_default == "n"
    assert user.mode is None
    assert path.mode is Mode.GLOBAL
    assert path.pattern.pattern == r"/[^\s()]+"
    assert path.group_map is None and path.group_default is None


def test_rule_file_unknown_section_rejected():
    with pytest.raises(ConfigError):
        loads_rules("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
        loads_rules("[DEFAULT]\nsignificant = yes\n\n[rule A]\npattern = a\n")


def test_rule_file_syntax_error_names_the_line_without_quoting_it():
    with pytest.raises(ConfigError) as info:
        loads_rules("[rule USER]\npattern = x\n[groups USER]\nsiavash n\nroot p\n")
    assert str(info.value) == "bad rule file, line 4: not a section header, a key = value line or a comment"


def test_rule_file_orphan_groups_rejected():
    with pytest.raises(ConfigError):
        loads_rules("[groups USER]\nroot = p\n")


def test_rule_file_bad_mode_rejected():
    with pytest.raises(ConfigError):
        loads_rules("[ruleset]\nmode = sideways\n")


@pytest.mark.parametrize("key,value", BAD_RULE_VALUES)
def test_rule_file_bad_rule_value_is_config_error(key, value):
    text = f"[rule NUM]\npattern = \\d+\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"^rule NUM: .*\b{value}\b"):
        loads_rules(text)


@pytest.mark.parametrize("text,message", UNKNOWN_RULE_KEYS)
def test_rule_file_unknown_key_rejected(text, message):
    with pytest.raises(ConfigError) as info:
        loads_rules(text)
    assert str(info.value) == message


def test_rule_file_with_byte_order_mark_loads(tmp_path):
    text = (FIXTURES / "mixed_sample.rules").read_bytes()
    plain, marked = tmp_path / "plain.rules", tmp_path / "marked.rules"
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    assert load_rules(marked) == load_rules(plain)


def test_readme_rule_file_loads():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    parsed = loads_rules(block)
    rules = {r.name: r for r in parsed.rules}
    assert parsed.mode is Mode.GLOBAL
    assert rules["USER"].group_default == "n"
    assert rules["USER"].group_map == {"siavash": "n", "florina": "n", "root": "p"}
    assert rules["NUM"].mode is Mode.INDIVIDUAL
