from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SHELL_CMD_A, SHELL_CMD_B, shell_cmd_rulesets
from loganon import (
    CollisionDetected,
    EncodingDictionaries,
    Mode,
    StorageTally,
    SymbolRegistry,
    cli,
    encode_entry,
    hash_text,
    process_entry,
)
from loganon.encoder import dictionary_bytes, register
from sponge_oracle import shake128_hex

# Golden digests frozen from the standalone sponge implementation in
# sponge_oracle.py before the production path existed.
GOLDEN_DIGESTS = {
    "(siavash) cmd (/home/siavash/config.sh > /dev/null)": "12e1577b",
    "(florina) cmd (/home/florina/setup.sh > /dev/null)": "0616d4c7",
    "(#USR_#) cmd (#PATH# > #PATH#)": "60b57133",
    "(#USR_#) cmd (#PATH1# > #PATH2#)": "0479abde",
    "(#USR1#) cmd (#PATH1# > #PATH2#)": "e78d2b56",
    "(#USR1#) cmd (#PATH# > #PATH#)": "d4ad931b",
    "(siavash) CMD (#PATH#)": "bb2d95d2",
    "(florina) CMD (#PATH#)": "23343ad0",
    "(root) CMD (#PATH#)": "752d8638",
    "starting 0anacron": "47c6b01d",
    "Anacron started on #TIME#": "22bb4f1a",
    "Jobs will be executed sequentially": "f1e7eac3",
    "Normal exit (0 jobs run)": "e46c1bdb",
    "Normal exit (4 jobs run)": "0c3b639c",
    "finished 0anacron": "76690e70",
    "(#USER#) CMD (#PATH#)": "66dc2742",
}


@pytest.mark.parametrize("text,expected", sorted(GOLDEN_DIGESTS.items()))
def test_hash_text_golden(text, expected):
    assert hash_text(text) == expected


def test_hash_text_deterministic_and_width():
    assert hash_text("anything", 7) == hash_text("anything", 7)
    assert len(hash_text("anything", 7)) == 14
    assert hash_text("anything", 7) != hash_text("anything!", 7)


def test_longer_digest_extends_shorter():
    # extendable output: a longer truncation starts with the shorter one
    short = hash_text("xyz", 4)
    long = hash_text("xyz", 16)
    assert long.startswith(short)


@given(st.text(max_size=200))
def test_hash_text_matches_sponge_oracle(text):
    assert hash_text(text) == shake128_hex(text, 4)
    assert hash_text(text, 16) == shake128_hex(text, 16)


# --- dictionaries and encode_entry ------------------------------------------

def test_pattern_dictionary_counts_and_lookup():
    d: dict[str, str] = {}
    register(d, "bb", "y")
    register(d, "aa", "x")
    register(d, "bb", "y")  # a known pair: no-op
    assert list(d.items()) == [("bb", "y"), ("aa", "x")]  # first-registration order


def test_pattern_dictionary_collision():
    d = {"aa": "x"}
    with pytest.raises(CollisionDetected):
        register(d, "aa", "z")
    assert d == {"aa": "x"}


def test_forced_collision_at_one_byte():
    # 257 distinct inputs cannot fit in a 1-byte key space
    d: dict[str, str] = {}
    with pytest.raises(CollisionDetected):
        for i in range(257):
            register(d, hash_text(f"t{i}", 1), f"t{i}")


def smallest_safe_width(n: int) -> int:
    """Independent of the encoder: the first width from 4 up whose birthday estimate is below 1e-6."""
    return next(b for b in range(4, 33) if 1 - math.exp(-(n * n) / 2 ** (8 * b + 1)) < 1e-6)


@pytest.mark.parametrize("n, width", [(1, 4), (92, 4), (93, 5), (100_000, 7)])
def test_collision_error_names_a_safe_width(n, width):
    assert smallest_safe_width(n) == width
    d = {f"{i:08x}": f"text {i}" for i in range(n)}
    with pytest.raises(CollisionDetected) as caught:
        register(d, "00000000", "another text")
    assert str(caught.value) == (
        "key 00000000 maps to both 'text 0' and 'another text'; increase the digest width "
        f"and re-run (distinct keys so far: {n}, width: 4 bytes; smallest --digest-bytes "
        f"with a birthday estimate below 1e-6: {width})"
    )


def _encode(message: str, rules, dicts, registry):
    deid_message, _, pattern = process_entry(message, rules, registry)
    return encode_entry(deid_message, pattern, dicts)


def test_encode_same_partial_rewrite_same_keys():
    # same significant value and same shape: identical hash AND category
    rules = shell_cmd_rulesets()["type2"]
    dicts = EncodingDictionaries()
    registry = SymbolRegistry()
    a_hash, a_category = _encode(SHELL_CMD_A, rules, dicts, registry)
    assert _encode(SHELL_CMD_A, rules, dicts, registry) == (a_hash, a_category)
    assert list(dicts.messages.items()) == [(a_hash, "(#USR1#) cmd (#PATH1# > #PATH2#)")]
    assert list(dicts.patterns.items()) == [(a_category, "(#USR_#) cmd (#PATH_# > #PATH_#)")]


def test_encode_category_groups_different_users():
    rules = shell_cmd_rulesets()["type2"]
    dicts = EncodingDictionaries()
    registry = SymbolRegistry()
    a_hash, a_category = _encode(SHELL_CMD_A, rules, dicts, registry)
    b_hash, b_category = _encode(SHELL_CMD_B, rules, dicts, registry)
    assert a_hash != b_hash
    assert a_category == b_category


def test_hash_equality_implies_category_equality_on_fixture(cron_entries, cron_ruleset):
    dicts = EncodingDictionaries()
    registry = SymbolRegistry()
    by_hash = {}
    for _, _, message in cron_entries:
        deid_message, _, pattern = process_entry(message, cron_ruleset, registry)
        hash_key, category_key = encode_entry(deid_message, pattern, dicts)
        by_hash.setdefault(hash_key, set()).add(category_key)
    assert all(len(cats) == 1 for cats in by_hash.values())


def test_same_user_different_commands_share_keys(cron_entries, cron_ruleset):
    # rows 1 and 3: same user, different insignificant command text; under
    # individual mode both rewrite identically, so hash AND category agree
    rules = cron_ruleset.with_mode(Mode.INDIVIDUAL)
    dicts = EncodingDictionaries()
    registry = SymbolRegistry()
    encoded = {}
    for i, (_, _, message) in enumerate(cron_entries, start=1):
        deid_message, _, pattern = process_entry(message, rules, registry)
        encoded[i] = encode_entry(deid_message, pattern, dicts)
    assert encoded[1] == encoded[3]  # hash and category keys
    assert encoded[1][0] != encoded[2][0]  # different user: different hash key
    assert encoded[1][1] == encoded[2][1]


def test_encoded_key_width_follows_config():
    # The width is the dictionaries': both keys, and each pattern held once.
    deid_message, _, pattern = process_entry(SHELL_CMD_A, shell_cmd_rulesets()["global"])
    for width in (1, 4, 8, 32):
        dicts = EncodingDictionaries(width)
        for _ in range(2):
            assert encode_entry(deid_message, pattern, dicts) == (
                shake128_hex(deid_message, width),
                shake128_hex(pattern, width),
            )
        assert dicts.patterns.by_pattern == {pattern: shake128_hex(pattern, width)}
        assert dicts.patterns == {shake128_hex(pattern, width): pattern}


def test_timestamp_and_source_pass_through(tmp_path):
    # encode_entry sees only the message; the encoded line keeps the raw timestamp and source.
    log = tmp_path / "in.log"
    log.write_text("123 T-9 hello\n", encoding="utf-8")
    assert cli.main(["anonymize", str(log), "--out", str(tmp_path / "out")]) == 0
    key = hash_text("hello")
    assert (tmp_path / "out" / "encoded.log").read_text(encoding="utf-8") == f"123 T-9 {key} {key}\n"


# --- storage accounting ------------------------------------------------------

def _storage_tally(raw_messages, encoded, dicts):
    tally = StorageTally(dicts)
    for message in raw_messages:
        tally.add(len(message.encode("utf-8")))
    # The derived size is that of the key columns the entries were encoded to.
    assert tally.encoded_message_bytes == sum(len(f"{h} {c}") for h, c in encoded)
    return tally


def test_storage_empty_corpus():
    tally = StorageTally(EncodingDictionaries())
    assert tally.raw_message_bytes == 0
    assert tally.encoded_message_bytes == 0
    assert tally.saving() == 0
    assert tally.saving(10) == 0
    assert tally.report() == [
        "entries: 0",
        "raw message bytes: 0",
        "encoded message bytes: 0",
        "dictionary bytes: 0",
        "saving excluding dictionary: 0.00%",
        "saving including dictionary: 0.00%",
    ]


def test_storage_fixture_exact(cron_entries, cron_ruleset):
    dicts = EncodingDictionaries()
    registry = SymbolRegistry()
    encoded = []
    messages = [message for _, _, message in cron_entries]
    for message in messages:
        deid_message, _, pattern = process_entry(message, cron_ruleset, registry)
        encoded.append(encode_entry(deid_message, pattern, dicts))
    tally = _storage_tally(messages, encoded, dicts)
    # independent byte count straight off the fixture contents
    raw_bytes = sum(len(message.encode("utf-8")) for message in messages)
    assert tally.entries == 20
    assert tally.raw_message_bytes == raw_bytes
    assert tally.encoded_message_bytes == 20 * (8 + 1 + 8)
    assert tally.saving() == 1 - Fraction(20 * 17, raw_bytes)
    dict_bytes = sum(
        len(k) + 1 + len(t.encode("utf-8")) + 1
        for d in (dicts.messages, dicts.patterns)
        for k, t in d.items()
    )
    assert dictionary_bytes(dicts) == dict_bytes
    assert tally.saving(dict_bytes) == 1 - Fraction(20 * 17 + dict_bytes, raw_bytes)
    lines = tally.report()
    assert lines[3] == f"dictionary bytes: {dict_bytes}"
    assert lines[5] == f"saving including dictionary: {float(tally.saving(dict_bytes)) * 100:.2f}%"


@pytest.mark.parametrize("digest_bytes", [1, 8, 32])
def test_storage_encoded_bytes_follow_the_width(digest_bytes):
    messages = ["a", "bb", "a"]
    dicts = EncodingDictionaries(digest_bytes)
    encoded = [encode_entry(m, m, dicts) for m in messages]
    tally = _storage_tally(messages, encoded, dicts)
    assert tally.encoded_message_bytes == 3 * (2 * digest_bytes + 1 + 2 * digest_bytes)


def test_storage_long_messages_high_saving():
    messages = ["x" * 100 + f" tail {i}" for i in range(50)]
    dicts = EncodingDictionaries()
    encoded = [encode_entry(message, message, dicts) for message in messages]
    assert _storage_tally(messages, encoded, dicts).saving() > Fraction(80, 100)
