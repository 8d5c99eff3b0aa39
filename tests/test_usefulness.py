from __future__ import annotations

import csv
import io
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import accumulate_counts, brute_force_rows, brute_force_usefulness
from loganon import (
    DomainError,
    Mode,
    RuleSet,
    SymbolRegistry,
    TermRule,
    UsefulnessAccumulator,
    hash_text,
    process_entry,
    render_decimal,
    top_k_coverage,
    usefulness_from_summary,
)
from loganon.usefulness import _decimal_text


def test_row_ratio_values():
    # (N_val, N_s) per slot -> prod N_s / prod N_val; no slots means ratio 1.
    cases = {(): 1, ((3, 1),): Fraction(1, 3), ((3, 2),): Fraction(2, 3),
             ((3, 2), (2, 1)): Fraction(1, 3)}
    for slots, ratio in cases.items():
        (row,) = accumulate_counts([("p", 3, slots)]).report().rows
        assert row.ratio == ratio
        assert row.contribution == ratio


def _accumulate(entries, ruleset):
    registry = SymbolRegistry()
    acc = UsefulnessAccumulator()
    for _, _, message in entries:
        _, significant, pattern = process_entry(message, ruleset, registry)
        acc.add(significant, pattern)
    return acc


@pytest.mark.parametrize(
    "mode,expected",
    [
        (Mode.GLOBAL, Fraction(37, 60)),
        (Mode.GROUP, Fraction(47, 60)),
        (Mode.INDIVIDUAL, Fraction(1)),
    ],
)
def test_usefulness_cron_fixture(cron_entries, cron_ruleset, mode, expected):
    acc = _accumulate(cron_entries, cron_ruleset.with_mode(mode))
    report = acc.report(mode.value)
    assert report.value == expected
    assert sum(row.dominance for row in report.rows) == 1
    assert report.n_entries == 20


def test_usefulness_cron_breakdown(cron_entries, cron_ruleset):
    report = _accumulate(cron_entries, cron_ruleset).report("global")
    assert sorted((row.f_p for row in report.rows), reverse=True) == [10, 2, 2, 2, 2, 2]
    top = report.rows[0]
    assert top.f_p == 10
    assert top.dominance == Fraction(1, 2)
    assert top.ratio == Fraction(1, 3)
    by_pattern = {row.pattern_text: row for row in report.rows}
    # One symbol for 3 users; one for 2 job counts.
    assert by_pattern["(#USER_#) CMD (#PATH#)"].ratio == Fraction(1, 3)
    assert by_pattern["Normal exit (#NUM_# jobs run)"].ratio == Fraction(1, 2)


def test_accumulator_rejects_a_value_under_two_symbols():
    acc = UsefulnessAccumulator()
    # The same value under the same symbol is accepted again and counted once.
    for _ in range(2):
        acc.add((("secret5", "#NUM_#", 0), ("7", "#X_#", 1)), "#NUM_# #X_#")
    (row,) = acc.report().rows
    assert (row.f_p, row.ratio) == (2, 1)
    with pytest.raises(DomainError) as caught:
        acc.add((("secret5", "#X_#", 0),), "#NUM_# #X_#")
    message = str(caught.value)
    assert message == "pattern '#NUM_# #X_#': slot 0 holds a value under both '#NUM_#' and '#X_#'"
    assert "secret5" not in message


def test_rejected_entry_leaves_the_accumulator_unchanged():
    accepted = [((("a", "#S1#", 0), ("x", "#T1#", 1)), "p"), ((("b", "#S2#", 0),), "p")]
    acc = UsefulnessAccumulator()
    for significant, pattern in accepted:
        acc.add(significant, pattern)
    expected = acc.report()
    rejected = [
        # New values in slot 1 and in a new slot 2, then a known value under another symbol.
        ((("y", "#T2#", 1), ("z", "#U1#", 2), ("a", "#S9#", 0)), "p"),
        # A new pattern whose own two triples disagree.
        ((("v", "#S1#", 0), ("v", "#S2#", 0)), "q"),
    ]
    for significant, pattern in rejected:
        with pytest.raises(DomainError):
            acc.add(significant, pattern)
        assert acc.report() == expected
    # Nothing of a rejected entry is kept: "y" may now come under another symbol.
    later = ((("y", "#T3#", 1),), "p")
    acc.add(*later)
    fresh = UsefulnessAccumulator()
    for significant, pattern in [*accepted, later]:
        fresh.add(significant, pattern)
    assert acc.report() == fresh.report()


def test_usefulness_equals_one_iff_all_ratios_one():
    assert accumulate_counts([("p", 3, [(3, 3)]), ("q", 2, [])]).report().value == 1
    assert accumulate_counts([("p", 3, [(3, 2)]), ("q", 2, [])]).report().value < 1


def test_summary_head_value():
    rows = [(Fraction("0.43"), 1), (Fraction("0.09"), Fraction(1, 14)),
            (Fraction("0.09"), Fraction(1, 14)), (Fraction("0.05"), 1), (Fraction("0.05"), 1)]
    assert usefulness_from_summary(rows) == Fraction(19, 35)
    assert abs(float(usefulness_from_summary(rows)) - 0.542857142857) < 1e-9


def test_summary_with_residual_rows():
    rows = [(0.43, 1), (0.09, Fraction(1, 14)), (0.09, Fraction(1, 14)), (0.05, 1), (0.05, 1),
            (0.28, 1)]
    value = usefulness_from_summary(rows, residual=(0.01, 0))
    assert value == Fraction(144, 175)
    assert abs(float(value) - 0.822857142857) < 1e-9


def test_summary_residual_is_linear():
    head = [(0.43, 1), (0.09, Fraction(1, 14)), (0.09, Fraction(1, 14)), (0.05, 1), (0.05, 1)]
    base = usefulness_from_summary(head)
    for a in (0, Fraction(1, 3), Fraction(1, 2), 1):
        assert usefulness_from_summary(head, residual=(Fraction("0.28"), a)) == base + Fraction("0.28") * a


def test_summary_single_perfect_row():
    assert usefulness_from_summary([(1, 1)]) == 1


def test_summary_domain_errors():
    with pytest.raises(DomainError):
        usefulness_from_summary([(0.8, 1), (0.3, 1)])
    with pytest.raises(DomainError):
        usefulness_from_summary([(0.5, 2)])
    with pytest.raises(DomainError):
        usefulness_from_summary([(-0.1, 1)])


# --- coverage ----------------------------------------------------------------

def _cron_frequencies(cron_entries, cron_ruleset):
    report = _accumulate(cron_entries, cron_ruleset).report()
    return [row.f_p for row in report.rows]


def test_top_k_cron(cron_entries, cron_ruleset):
    frequencies = _cron_frequencies(cron_entries, cron_ruleset)
    table = top_k_coverage(frequencies, [1, 6, 99])
    assert table.n_entries == 20
    assert table.n_patterns == 6
    assert table.rows[0] == (1, Fraction(1, 2))
    assert table.rows[1] == (6, Fraction(1))
    assert table.rows[2] == (99, Fraction(1))


def test_top_k_monotone(cron_entries, cron_ruleset):
    frequencies = _cron_frequencies(cron_entries, cron_ruleset)
    coverages = [cov for _, cov in top_k_coverage(frequencies, list(range(1, 8))).rows]
    assert coverages == sorted(coverages)
    assert coverages[-1] == 1


def test_top_k_tie_break_deterministic():
    table = top_k_coverage([2, 2, 6], [2])
    # rank 1 is the f_p=6 pattern; either pattern of the tie at f_p=2 adds 2
    assert table.rows[0][1] == Fraction(8, 10)


def test_top_k_rejects_bad_k():
    with pytest.raises(DomainError):
        top_k_coverage([1], [0])


@pytest.mark.parametrize("f_p", [0, -3])
def test_top_k_rejects_a_frequency_below_one(f_p):
    with pytest.raises(DomainError) as caught:
        top_k_coverage([2, f_p], [1])
    assert str(caught.value) == f"pattern frequencies must be >= 1, got {f_p}"


def test_csv_lines_shape(cron_entries, cron_ruleset):
    frequencies = _cron_frequencies(cron_entries, cron_ruleset)
    table = top_k_coverage(frequencies, [1, 6])
    lines = table.csv_lines()
    assert lines[0] == "#Raw log entries,20"
    assert lines[1] == "#Event patterns,6"
    assert lines[2] == "K,coverage_percent"
    assert lines[3] == "1,50.00"
    assert lines[4] == "6,100.00"


# --- streaming vs reference --------------------------------------------------

@pytest.mark.parametrize("mode", list(Mode))
def test_streaming_matches_brute_force_on_fixture(cron_entries, cron_ruleset, mode):
    ruleset = cron_ruleset.with_mode(mode)
    acc = _accumulate(cron_entries, ruleset)
    assert acc.report(mode.value).value == brute_force_usefulness(cron_entries, ruleset)


# Significant rules whose matches land next to symbols the input already
# holds; Z also matches the name inside #Z_#, cutting that symbol.
SLOT_RULES = (
    TermRule("X", r"(?<=# )\d", significant=True),
    TermRule("NUM", r"\b\d+\b", significant=True),
    TermRule("P", r"x+"),
    TermRule("Z", r"Z+", significant=True),
)
SLOT_SYMBOLS = ("#NUM_#", "#X_#", "#NUM1#", "#P#", "#Z_#", "#Q#")


@settings(max_examples=300)
@given(
    st.lists(
        st.tuples(
            st.text("56 x", max_size=8),
            st.lists(st.tuples(st.integers(0, 8), st.sampled_from(SLOT_SYMBOLS)), max_size=3),
        ),
        min_size=1,
        max_size=12,
    ),
    st.sampled_from(list(Mode)),
)
@example([("5", [(1, "#NUM_#")]), ("6", [(0, "#NUM_#")])], Mode.GLOBAL)
@example([("5 ", [(2, "#X_#")]), (" 5", [(0, "#NUM_#")])], Mode.INDIVIDUAL)
def test_symbols_in_input_leave_ratios_equal_to_reference(drawn, mode):
    """Well-formed symbols inserted into random messages: every row's ratio is the positional reference's."""
    entries = []
    for i, (message, inserts) in enumerate(drawn):
        for position, symbol in inserts:
            message = message[:position] + symbol + message[position:]
        entries.append((i + 1, "n", message))
    ruleset = RuleSet(SLOT_RULES, mode)
    report = _accumulate(entries, ruleset).report(mode.value)
    assert sorted((row.pattern_text, row.f_p, row.ratio) for row in report.rows) == brute_force_rows(
        entries, ruleset
    )


# --- bounds and monotonicity --------------------------------------------------

@st.composite
def synthetic_patterns(draw):
    """(text, f_p, [(n_values, n_symbols), ...]) per pattern, as accumulate_counts takes them."""
    patterns = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        f_p = draw(st.integers(min_value=1, max_value=50))
        slots = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            n_values = draw(st.integers(min_value=1, max_value=min(9, f_p)))
            slots.append((n_values, draw(st.integers(min_value=1, max_value=n_values))))
        patterns.append((f"p{i}", f_p, slots))
    return patterns


@given(synthetic_patterns())
def test_usefulness_bounds(patterns):
    value = accumulate_counts(patterns).report().value
    assert 0 < value <= 1


@given(synthetic_patterns(), st.data())
def test_usefulness_monotone_in_symbol_count(patterns, data):
    base = accumulate_counts(patterns).report().value
    i = data.draw(st.integers(min_value=0, max_value=len(patterns) - 1))
    text, f_p, slots = patterns[i]
    if not slots:
        return
    j = data.draw(st.integers(min_value=0, max_value=len(slots) - 1))
    n_values, n_symbols = slots[j]
    if n_symbols == n_values:
        return
    bumped = list(patterns)
    bumped[i] = (text, f_p, [*slots[:j], (n_values, n_symbols + 1), *slots[j + 1:]])
    assert accumulate_counts(bumped).report().value >= base


@st.composite
def consistent_triples(draw):
    """Entries as (pattern, triples) whose every (pattern, slot, value) keeps one symbol."""
    symbol_of = {}
    entries = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        pattern = draw(st.sampled_from(["p", "q", "r"]))
        slots = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=3, unique=True))
        triples = []
        for slot in slots:
            value = draw(st.sampled_from(["a", "b", "c", "d"]))
            drawn = draw(st.sampled_from(["#S0#", "#S1#", "#S2#"]))
            symbol = symbol_of.setdefault((pattern, slot, value), drawn)
            triples.append((value, symbol, slot))
        entries.append((pattern, triples))
    return entries


@given(consistent_triples(), st.randoms(use_true_random=False))
def test_report_does_not_depend_on_entry_order(entries, random):
    shuffled = list(entries)
    random.shuffle(shuffled)
    reports = []
    for order in (entries, shuffled):
        acc = UsefulnessAccumulator()
        for pattern, triples in order:
            acc.add(triples, pattern)
        reports.append(acc.report("global"))
    assert reports[0].rows == reports[1].rows
    assert reports[0].value == reports[1].value


def test_mode_ordering_on_fixture(cron_entries, cron_ruleset):
    values = {
        mode: _accumulate(cron_entries, cron_ruleset.with_mode(mode)).report("x").value
        for mode in Mode
    }
    assert values[Mode.GLOBAL] <= values[Mode.GROUP] <= values[Mode.INDIVIDUAL] == 1


# --- rendering ----------------------------------------------------------------

@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(37, 60), "0.6167"),
        (Fraction(47, 60), "0.7833"),
        (Fraction(1), "1.0000"),
        (Fraction(19, 35), "0.5429"),
        (Fraction(144, 175), "0.8229"),
        (Fraction(1, 10), "0.1000"),
        (0, "0.0000"),
    ],
)
def test_render_decimal(value, expected):
    assert render_decimal(value) == expected


def test_report_csv_totals(cron_entries, cron_ruleset):
    report = _accumulate(cron_entries, cron_ruleset).report("global")
    lines = report.csv_lines()
    assert lines[0] == "category,pattern,f_p,D_p,ratio,contribution"
    assert lines[-1].startswith("TOTAL,,20,1.0000,")
    assert lines[-1].endswith("0.6167")


def _reference_decimal(x: Fraction) -> str:
    rounded = round(x * 10**4)  # Fraction.__round__: exact, ties to even
    sign = "-" if rounded < 0 else ""
    whole, frac = divmod(abs(rounded), 10**4)
    return f"{sign}{whole}.{frac:04d}"


# Odd multiples of 1/20000 lie exactly halfway between two 4-place decimals.
exact_ties = st.integers(min_value=-(10**9), max_value=10**9).map(lambda n: Fraction(2 * n + 1, 20000))


@given(st.one_of(st.fractions(), exact_ties))
def test_render_decimal_equals_fraction_round(x):
    assert render_decimal(x) == _reference_decimal(x)
    assert render_decimal(str(x)) == _reference_decimal(x)


@given(st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)))
def test_render_decimal_int_and_float_inputs(x):
    assert render_decimal(x) == _reference_decimal(Fraction(repr(x)))


@given(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.one_of(st.sampled_from([2, 8, 20000]), st.integers(min_value=1, max_value=10**9)),
    st.integers(min_value=1, max_value=10**6),
)
@example(1, 20000, 3)  # 0.00005: a tie, rounds to the even 0.0000
@example(-3, 20000, 7)  # -0.00015: a tie, rounds to the even -0.0002
def test_decimal_text_of_unreduced_terms(a, b, k):
    # The report renders prod N_s / prod N_val without reducing it first.
    assert _decimal_text(k * a, k * b) == _decimal_text(a, b) == render_decimal(Fraction(a, b))


@st.composite
def repeating_patterns(draw):
    """Patterns whose f_p and ratios repeat, with distinct texts that need CSV quoting."""
    texts = st.text(alphabet="ab ,\"#_XY", min_size=1, max_size=12)
    patterns = []
    for text in draw(st.lists(texts, min_size=1, max_size=30, unique=True)):
        f_p = draw(st.integers(min_value=1, max_value=4))
        slots = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            n_values = draw(st.integers(min_value=1, max_value=f_p))
            slots.append((n_values, draw(st.integers(min_value=1, max_value=n_values))))
        patterns.append((text, f_p, slots))
    return patterns


def _reference_report(patterns, mode_label):
    """Rows, CSV lines, table lines and U in plain Fraction arithmetic, one row at a time."""
    n_entries = sum(f_p for _, f_p, _ in patterns)
    rows = []
    value = Fraction(0)
    keyed = sorted((-f_p, hash_text(text), text, f_p, slots) for text, f_p, slots in patterns)
    for _, key, text, f_p, slots in keyed:
        share = Fraction(f_p, n_entries)
        ratio = Fraction(1)
        for n_values, n_symbols in slots:
            ratio *= Fraction(n_symbols, n_values)
        rows.append((key, text, f_p, share, ratio, share * ratio))
        value += share * ratio
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["category", "pattern", "f_p", "D_p", "ratio", "contribution"])
    table = [f"{'category':<12} {'f_p':>8} {'D_p':>8} {'ratio':>8} {'contrib':>8}  pattern"]
    for key, text, f_p, share, ratio, contribution in rows:
        shown = [_reference_decimal(v) for v in (share, ratio, contribution)]
        writer.writerow([key, text, f_p, *shown])
        table.append(f"{key:<12} {f_p:>8} {shown[0]:>8} {shown[1]:>8} {shown[2]:>8}  {text}")
    writer.writerow(["TOTAL", "", n_entries, "1.0000", "", _reference_decimal(value)])
    table.append(
        f"usefulness ({mode_label}): {_reference_decimal(value)} "
        f"(exact {value.numerator}/{value.denominator}) over {n_entries} entries"
    )
    return rows, buf.getvalue().splitlines(), table, value


@given(repeating_patterns(), st.sampled_from(["global", "group", "individual"]))
def test_report_equals_fraction_reference(patterns, mode_label):
    report = accumulate_counts(patterns).report(mode_label)
    rows, csv_lines, table_lines, value = _reference_report(patterns, mode_label)
    assert report.value == value
    assert [(r.category_key, r.pattern_text, r.f_p, r.dominance, r.ratio, r.contribution)
            for r in report.rows] == rows
    assert report.csv_lines() == csv_lines
    assert report.table_lines() == table_lines
    # A second call renders from the report's memo and must not differ.
    assert report.csv_lines() == csv_lines
    assert report.table_lines() == table_lines
