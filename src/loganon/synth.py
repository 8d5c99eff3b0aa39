"""Seeded synthetic log corpora with Zipf-distributed event patterns.

Every output is a pure function of the generator parameters, so fixtures
and large-scale tests are reproducible byte-for-byte. Two message styles:

* ``plain`` -- long constant-per-pattern prose lines, nothing for the
  default rules to match (pattern space == message space).
* ``cmd``   -- command-execution lines with a username and a path token,
  exercising the USER/PATH rules and individual-mode numbering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

# 64 filler words; no digits, no daemon names, nothing the default rules match.
_WORDS = (
    "alpha bravo candle delta ember falcon garnet harbor indigo jasper "
    "kestrel lantern meadow nectar onyx prairie quartz russet saffron timber "
    "umber velvet willow xenon yarrow zephyr anchor basalt cobalt drift "
    "ewer fjord gully heath islet jetty knoll ledge mesa notch oxbow pylon "
    "quill ridge shale tarn upland vale wharf yoke zenith arbor bluff crag "
    "dune eyot glen hollow inlet knot loch moor nook spur"
).split()

assert len(_WORDS) == 64


def zipf_weights(n_patterns: int, exponent: float = 1.0) -> np.ndarray:
    """Normalized rank probabilities p_k proportional to 1/k**exponent, k = 1..n."""
    import numpy as np  # here, not at module level: only gen needs numpy

    ranks = np.arange(1, n_patterns + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _pad_words(k: int, count: int) -> str:
    # Base-64 digits of k, then a fixed rotation; injective for count >= 3
    # and k < 64**3, and deterministic without any RNG.
    words = []
    v = k
    for _ in range(3):
        words.append(_WORDS[v % 64])
        v //= 64
    for i in range(count - 3):
        words.append(_WORDS[(k * 7 + i * 13 + 3) % 64])
    return " ".join(words[:count])


def plain_message(k: int) -> str:
    """Constant message text for pattern rank k (plain style)."""
    return f"svc{k:05d} worker heartbeat state nominal {_pad_words(k, 12)} cycle complete"


def cmd_message(k: int, user: int) -> str:
    """Command-execution message for pattern rank k triggered by one user (cmd style)."""
    return f"(user{user:03d}) CMD (/srv/pool/svc{k:05d}/run.sh) {_pad_words(k, 3)}"


def cmd_pattern_text(k: int) -> str:
    """The event pattern cmd_message(k, u) maps to under the default rules."""
    return f"(#USER_#) CMD (#PATH#) {_pad_words(k, 3)}"


@dataclass(frozen=True)
class CorpusSpec:
    entries: int
    patterns: int
    seed: int
    zipf_exponent: float = 1.0
    nodes: int = 4
    days: int = 2
    epoch_day0: int = 0
    style: str = "plain"  # plain | cmd
    users: int = 50

    def __post_init__(self) -> None:
        if self.style not in ("plain", "cmd"):
            raise ValueError(f"unknown style {self.style!r}")
        if min(self.entries, self.patterns, self.nodes, self.days) < 1:
            raise ValueError("entries, patterns, nodes, and days must be >= 1")
        if self.style == "cmd" and self.users < 1:
            raise ValueError("cmd style needs users >= 1")
        if not math.isfinite(self.zipf_exponent):
            raise ValueError(f"zipf_exponent must be finite, got {self.zipf_exponent}")


def generate_lines(spec: CorpusSpec) -> Iterator[str]:
    """Yield raw log lines `<timestamp> <node> <message>` for the spec.

    Timestamps are sorted uniform draws over the covered days; pattern ranks
    are Zipf draws; everything is reproducible from the seed.
    """
    import numpy as np  # here, not at module level: only gen needs numpy

    rng = np.random.default_rng(spec.seed)
    weights = zipf_weights(spec.patterns, spec.zipf_exponent)
    ranks = rng.choice(spec.patterns, size=spec.entries, p=weights)
    span = spec.days * 86400
    timestamps = np.sort(rng.integers(0, span, size=spec.entries)) + spec.epoch_day0
    node_ids = rng.integers(0, spec.nodes, size=spec.entries)
    # Drawn last, and only for cmd, so plain corpora keep their bytes.
    user_ids = rng.integers(0, spec.users, size=spec.entries) if spec.style == "cmd" else None
    for i in range(spec.entries):
        k = int(ranks[i])
        msg = plain_message(k) if user_ids is None else cmd_message(k, int(user_ids[i]))
        yield f"{int(timestamps[i])} n{int(node_ids[i]):03d} {msg}"
