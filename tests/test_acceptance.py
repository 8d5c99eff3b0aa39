"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria cover the worked fixture numbers exactly (rational
arithmetic), the de-identification equality structure, six property suites
at >= 1000 generated cases each, desk-scale coverage/storage runs against
exhaustive oracles, and byte-identical parallel output.
"""

from __future__ import annotations

import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXTURES,
    SHELL_CMD_A,
    SHELL_CMD_B,
    accumulate_counts,
    brute_force_rows,
    brute_force_usefulness,
    load_fixture_entries,
    shell_cmd_rulesets,
)
from loganon import (
    CollisionDetected,
    CorpusSpec,
    EncodingDictionaries,
    Mode,
    StorageTally,
    SymbolRegistry,
    UsefulnessAccumulator,
    difference_grid,
    encode_entry,
    generate_lines,
    hash_text,
    load_rules,
    parse_line,
    process_entry,
    render_decimal,
    render_entry,
    similarity_grid,
    top_k_coverage,
    usefulness_from_summary,
)
from loganon.cli import main
from loganon.encoder import register
from loganon.grids import OccurrenceGrid
from loganon.synth import cmd_pattern_text, plain_message

BIG = settings(max_examples=1000, deadline=None)


def _report(name: str, fn) -> None:
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def _cron_reports():
    ruleset = load_rules(FIXTURES / "cron_sample.rules")
    entries = load_fixture_entries("cron_sample.log")
    reports = {}
    for mode in Mode:
        registry = SymbolRegistry()
        acc = UsefulnessAccumulator()
        for _, _, message in entries:
            _, significant, pattern = process_entry(message, ruleset.with_mode(mode), registry)
            acc.add(significant, pattern)
        reports[mode] = acc.report(mode.value)
    return reports


def test_criterion_1_fixture_categories(tmp_path):
    def check():
        t0 = time.monotonic()
        report = _cron_reports()[Mode.GLOBAL]
        dominances = sorted((row.dominance for row in report.rows), reverse=True)
        assert dominances == [Fraction(1, 2)] + [Fraction(1, 10)] * 5
        assert len(report.rows) == 6
        # same result through the command-line pipeline
        code = main(
            ["anonymize", str(FIXTURES / "cron_sample.log"),
             "--rules", str(FIXTURES / "cron_sample.rules"), "--out", str(tmp_path)]
        )
        assert code == 0
        encoded = (tmp_path / "encoded.log").read_text().splitlines()
        category_counts = Counter(line.split(" ")[3] for line in encoded)
        assert sorted(category_counts.values(), reverse=True) == [10, 2, 2, 2, 2, 2]
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"fixture run took {elapsed:.3f}s"

    _report("C1 fixture: 6 categories, dominance {0.5, 0.1 x5}, < 1s", check)


def test_criterion_2_fixture_usefulness():
    def check():
        reports = _cron_reports()
        expected = {
            Mode.GLOBAL: (Fraction(37, 60), "0.6167"),
            Mode.GROUP: (Fraction(47, 60), "0.7833"),
            Mode.INDIVIDUAL: (Fraction(1), "1.0000"),
        }
        for mode, (exact, rendered) in expected.items():
            value = reports[mode].value
            assert value == exact, f"{mode}: {value} != {exact}"
            shown = render_decimal(value)
            assert shown == rendered
            assert abs(float(shown) - float(exact)) <= 5e-5

    _report("C2 fixture usefulness: 37/60, 47/60, 1 (rendered 4dp)", check)


def test_criterion_3_summary_evaluation():
    def check():
        head = [
            (Fraction("0.43"), 1),
            (Fraction("0.09"), Fraction(1, 14)),
            (Fraction("0.09"), Fraction(1, 14)),
            (Fraction("0.05"), 1),
            (Fraction("0.05"), 1),
        ]
        head_value = usefulness_from_summary(head)
        assert head_value == Fraction(19, 35)
        assert abs(float(head_value) - 0.5428571428571) < 1e-6
        full = usefulness_from_summary(head + [(Fraction("0.28"), 1)], residual=(Fraction("0.01"), 0))
        assert full == Fraction(144, 175)
        assert abs(float(full) - 0.8228571428571) < 1e-6

    _report("C3 summary evaluation: 0.542857..., 0.822857... (tol 1e-6)", check)


def test_criterion_4_deidentification_equality_structure():
    def check():
        expected_identical = {
            "raw": False, "global": True, "type1": False, "type2": False, "type3": False,
        }
        for name, ruleset in shell_cmd_rulesets().items():
            registry = SymbolRegistry()
            d1 = process_entry(SHELL_CMD_A, ruleset, registry)[0]
            d2 = process_entry(SHELL_CMD_B, ruleset, registry)[0]
            k1, k2 = hash_text(d1), hash_text(d2)
            assert (k1 == k2) is expected_identical[name], name

    _report("C4 equality structure across de-identification degrees (Y/N column)", check)


# --- criterion 5: property suites, >= 1000 generated cases each ---------------

def test_criterion_5a_parse_render_round_trip():
    source_chars = st.characters(codec="utf-8", exclude_categories=("Z", "C"))
    strategy = st.tuples(
        st.integers(min_value=0, max_value=2**48),
        st.text(alphabet=source_chars, min_size=1, max_size=10).filter(
            lambda s: not any(c.isspace() for c in s)
        ),
        st.text(max_size=60).filter(lambda s: "\n" not in s and "\r" not in s),
    )

    @BIG
    @given(strategy)
    def check(triple):
        assert parse_line(render_entry(triple)) == triple

    _report("C5a parse/render round-trip (1000 cases)", check)


_GRAN_RULES = None


def _granularity_rules():
    global _GRAN_RULES
    if _GRAN_RULES is None:
        from loganon import RuleSet, TermRule

        _GRAN_RULES = (
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
    return _GRAN_RULES


@st.composite
def _corpus(draw, max_entries: int = 30):
    users = ["ann", "bob", "cal", "dee", "eve"]
    paths = ["/bin/a", "/bin/b", "/opt/c"]
    fillers = ["idle", "busy", "sync done", "cache warm"]
    n = draw(st.integers(min_value=1, max_value=max_entries))
    messages = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            messages.append(
                f"({draw(st.sampled_from(users))}) cmd ({draw(st.sampled_from(paths))})"
            )
        elif kind == 1:
            messages.append(f"exit code {draw(st.integers(min_value=0, max_value=6))}")
        elif kind == 2:
            messages.append(
                f"({draw(st.sampled_from(users))}) cmd ({draw(st.sampled_from(paths))}) "
                f"took {draw(st.integers(min_value=1, max_value=4))}"
            )
        else:
            messages.append(draw(st.sampled_from(fillers)))
    return messages


def test_criterion_5b_granularity_monotonicity():
    from loganon import RuleSet

    def distinct(messages, mode):
        ruleset = RuleSet(_granularity_rules(), mode)
        registry = SymbolRegistry()
        return len({process_entry(m, ruleset, registry)[0] for m in messages})

    @BIG
    @given(_corpus())
    def check(messages):
        n_global = distinct(messages, Mode.GLOBAL)
        n_group = distinct(messages, Mode.GROUP)
        n_individual = distinct(messages, Mode.INDIVIDUAL)
        assert n_global <= n_group <= n_individual <= len(set(messages))

    _report("C5b granularity monotonicity global<=group<=individual<=raw (1000 cases)", check)


@st.composite
def _synthetic_patterns(draw):
    """(text, f_p, [(n_values, n_symbols), ...]) per pattern, as accumulate_counts takes them."""
    patterns = []
    for i in range(draw(st.integers(min_value=1, max_value=5))):
        f_p = draw(st.integers(min_value=1, max_value=40))
        slots = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            n_values = draw(st.integers(min_value=1, max_value=min(8, f_p)))
            slots.append((n_values, draw(st.integers(min_value=1, max_value=n_values))))
        patterns.append((f"p{i}", f_p, slots))
    return patterns


def test_criterion_5c_usefulness_bounds_and_monotonicity():
    @BIG
    @given(_synthetic_patterns(), st.data())
    def check(patterns, data):
        base = accumulate_counts(patterns).report().value
        assert 0 < base <= 1
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

    _report("C5c usefulness bounds 0<U<=1 and monotonicity in N_s (1000 cases)", check)


def test_criterion_5d_grid_partition_laws():
    cells = st.sets(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=7))
    )

    @BIG
    @given(cells, cells)
    def check(ca, cb):
        a = OccurrenceGrid("a", (0, 4), (0, 8), frozenset(ca))
        b = OccurrenceGrid("b", (0, 4), (0, 8), frozenset(cb))
        sim = similarity_grid(a, b)
        diff = difference_grid(a, b)
        assert sim.cells | diff.cells == a.cells | b.cells
        assert not sim.cells & diff.cells
        assert sim.cells == similarity_grid(b, a).cells

    _report("C5d similarity/difference grid partition laws (1000 cases)", check)


def test_criterion_5e_streaming_equals_brute_force():
    from loganon import RuleSet

    def check_report(entries, ruleset):
        registry = SymbolRegistry()
        acc = UsefulnessAccumulator()
        for _, _, message in entries:
            _, significant, pattern = process_entry(message, ruleset, registry)
            acc.add(significant, pattern)
        report = acc.report(ruleset.mode.value)
        rows = sorted((row.pattern_text, row.f_p, row.ratio) for row in report.rows)
        assert rows == brute_force_rows(entries, ruleset)
        assert report.value == brute_force_usefulness(entries, ruleset)

    @BIG
    @given(_corpus(max_entries=25), st.sampled_from(list(Mode)))
    def check(messages, mode):
        entries = [(i + 1, "n", m) for i, m in enumerate(messages)]
        check_report(entries, RuleSet(_granularity_rules(), mode))

    def deterministic_large_case():
        from loganon import default_ruleset

        ruleset = default_ruleset(Mode.INDIVIDUAL)
        entries = [
            parse_line(line)
            for line in generate_lines(
                CorpusSpec(entries=10_000, patterns=300, seed=12, style="cmd", users=40)
            )
        ]
        check_report(entries, ruleset)

    def both():
        check()
        deterministic_large_case()

    _report("C5e streaming == brute-force rows and usefulness (1000 cases + 1e4-entry corpus)", both)


def test_criterion_5f_collision_behavior():
    def check():
        # zero truncation collisions within each test corpus's own pattern
        # space (a run keeps one dictionary per corpus, never a union)
        plain_dict: dict[str, str] = {}
        for k in range(50_000):
            text = plain_message(k)
            register(plain_dict, hash_text(text), text)
        cmd_dict: dict[str, str] = {}
        for k in range(20_000):
            text = cmd_pattern_text(k)
            register(cmd_dict, hash_text(text), text)
        fixture_dict: dict[str, str] = {}
        ruleset = load_rules(FIXTURES / "cron_sample.rules")
        for _, _, message in load_fixture_entries("cron_sample.log"):
            pattern = process_entry(message, ruleset)[2]
            register(fixture_dict, hash_text(pattern), pattern)
        mixed_rules = load_rules(FIXTURES / "mixed_sample.rules")
        for _, _, message in load_fixture_entries("mixed_sample.log"):
            pattern = process_entry(message, mixed_rules)[2]
            register(fixture_dict, hash_text(pattern), pattern)
        # forcing it: a 1-byte key space cannot hold 257 distinct texts
        with pytest.raises(CollisionDetected):
            tiny: dict[str, str] = {}
            for k in range(257):
                register(tiny, hash_text(plain_message(k), 1), plain_message(k))

    _report("C5f zero 4-byte collisions on test corpora; 1-byte truncation collides", check)


# --- criterion 6: desk-scale coverage against an exhaustive oracle -------------

def test_criterion_6_coverage_at_scale():
    def check():
        spec = CorpusSpec(entries=1_000_000, patterns=50_000, seed=6, nodes=8, days=3)
        from loganon import RuleSet

        empty_rules = RuleSet(())
        t0 = time.monotonic()
        counts: Counter[str] = Counter()
        for line in generate_lines(spec):
            _, _, message = parse_line(line)
            pattern = process_entry(message, empty_rules)[2]
            counts[pattern] += 1
        ks = [5, 25, 50, 500, 5_000, 50_000]
        table = top_k_coverage(counts.values(), ks)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"coverage run took {elapsed:.1f}s"
        assert table.n_entries == spec.entries
        # exhaustive oracle: sort frequencies, sum the K largest directly
        ordered = sorted(counts.values(), reverse=True)
        for k, coverage in table.rows:
            expected = Fraction(sum(ordered[:k]), spec.entries)
            assert coverage == expected, f"K={k}"
        coverages = [c for _, c in table.rows]
        assert coverages == sorted(coverages)
        assert coverages[-1] == 1

    _report("C6 1e6-entry Zipf corpus: top-K coverage == exhaustive oracle, < 60s", check)


def test_criterion_7_storage_saving():
    def check():
        from loganon import RuleSet

        spec = CorpusSpec(entries=50_000, patterns=5_000, seed=7)
        dicts = EncodingDictionaries()
        tally = StorageTally(dicts)
        total_raw = 0
        n = 0
        for line in generate_lines(spec):
            _, _, message = parse_line(line)
            deid_message, _, pattern = process_entry(message, RuleSet(()))
            encode_entry(deid_message, pattern, dicts)
            tally.add(len(message.encode("utf-8")))
            total_raw += len(message.encode("utf-8"))
            n += 1
        mean_len = total_raw / n
        assert mean_len >= 90, f"mean message length {mean_len:.1f}"
        # byte-count oracle: 17 encoded bytes per entry against the raw total
        assert tally.saving() == 1 - Fraction(17 * n, total_raw)
        assert tally.saving() >= Fraction(80, 100)

    _report("C7 storage saving >= 80% on long-message corpus, exact byte oracle", check)


def test_criterion_8_parallel_determinism(tmp_path, capsys):
    def check():
        corpus = tmp_path / "corpus.log"
        spec = CorpusSpec(
            entries=100_000, patterns=20_000, seed=11, nodes=16, days=4, style="cmd", users=300
        )
        with open(corpus, "w", encoding="utf-8", newline="\n") as f:
            for line in generate_lines(spec):
                f.write(line + "\n")
        outputs = {}
        stdouts = {}
        for workers in (1, 4):
            out_dir = tmp_path / f"w{workers}"
            code = main(
                [
                    "anonymize", str(corpus), "--mode", "individual",
                    "--digest-bytes", "8", "--emit-dictionary", "--emit-meanings",
                    "--workers", str(workers), "--out", str(out_dir),
                ]
            )
            assert code == 0
            stdouts[workers] = capsys.readouterr().out.replace(str(out_dir), "<out>")
            outputs[workers] = {
                name: (out_dir / name).read_bytes()
                for name in ("encoded.log", "dictionary.tsv", "meanings.tsv")
            }
        assert outputs[1] == outputs[4]
        assert stdouts[1] == stdouts[4]
        assert len(outputs[1]["encoded.log"].splitlines()) == spec.entries

    _report("C8 anonymize byte-identical across 1 vs 4 workers (1e5 lines)", check)
