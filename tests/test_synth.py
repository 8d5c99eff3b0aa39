from __future__ import annotations

import numpy as np
import pytest

from loganon import CorpusSpec, generate_lines, parse_line
from loganon.synth import cmd_message, cmd_pattern_text, plain_message, zipf_weights
from loganon import default_ruleset, process_entry


def test_zipf_weights_normalized_and_decreasing():
    w = zipf_weights(100, 1.0)
    assert abs(w.sum() - 1.0) < 1e-12
    assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))
    assert w[0] / w[9] == pytest.approx(10.0)


def test_generate_deterministic_per_seed():
    spec = CorpusSpec(entries=500, patterns=40, seed=9)
    assert list(generate_lines(spec)) == list(generate_lines(spec))
    other = CorpusSpec(entries=500, patterns=40, seed=10)
    assert list(generate_lines(other)) != list(generate_lines(spec))


def test_generated_lines_parse_and_cover_spec():
    spec = CorpusSpec(entries=300, patterns=20, seed=1, nodes=3, days=2, epoch_day0=5000)
    entries = [parse_line(line) for line in generate_lines(spec)]
    assert len(entries) == 300
    assert all(5000 <= e.timestamp < 5000 + 2 * 86400 for e in entries)
    assert {e.source for e in entries} <= {f"n{i:03d}" for i in range(3)}
    ts = [e.timestamp for e in entries]
    assert ts == sorted(ts)


def test_plain_messages_constant_per_rank():
    spec = CorpusSpec(entries=200, patterns=10, seed=3)
    messages = {parse_line(l).message for l in generate_lines(spec)}
    assert messages <= {plain_message(k) for k in range(10)}


def test_plain_message_injective_prefix():
    assert len({plain_message(k) for k in range(2000)}) == 2000


def test_cmd_style_pattern_under_default_rules():
    msg = cmd_message(17, 5)
    e = parse_line(f"100 n000 {msg}")
    assert process_entry(e.message, default_ruleset())[2] == cmd_pattern_text(17)


def test_cmd_style_users_vary():
    spec = CorpusSpec(entries=400, patterns=15, seed=4, style="cmd", users=7)
    users = set()
    for line in generate_lines(spec):
        msg = parse_line(line).message
        users.add(msg[1 : msg.index(")")])
    assert users <= {f"user{u:03d}" for u in range(7)}
    assert len(users) > 1


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        CorpusSpec(entries=0, patterns=5, seed=0)
    with pytest.raises(ValueError):
        CorpusSpec(entries=5, patterns=5, seed=0, style="fancy")
    with pytest.raises(ValueError):
        CorpusSpec(entries=5, patterns=5, seed=0, style="cmd", users=0)


def test_zipf_head_dominates():
    spec = CorpusSpec(entries=20_000, patterns=100, seed=5)
    counts = np.zeros(100, dtype=int)
    for line in generate_lines(spec):
        k = int(parse_line(line).message[3:8])
        counts[k] += 1
    assert counts[0] == counts.max()
    assert counts[0] > spec.entries / 20  # rank 1 holds well over 1/H(100) of mass
