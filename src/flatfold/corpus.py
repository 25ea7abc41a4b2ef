"""Random inputs for cross-validating the fast algorithms against the oracle.

Two families of vertex stars: generic rational angles (distinct values,
repaired to satisfy closure by scaling each parity class to a half turn) and
pooled angles drawn as compositions of a half turn in 15-degree units, which
produce genuine equal-angle runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import AngleSequence
from .vertex import kawasaki

FIFTEEN = Fraction(15)


def random_flat_sequence(rng: random.Random, creases: int, pooled: bool = False) -> AngleSequence:
    """A random exact sequence of the given even length with closure repaired."""
    if creases % 2 != 0 or creases < 2:
        raise ValueError("need a positive even number of creases")
    n = creases // 2
    if pooled:
        odd = _composition(rng, 12, n)
        even = _composition(rng, 12, n)
        parts_odd = [FIFTEEN * u for u in odd]
        parts_even = [FIFTEEN * u for u in even]
    else:
        raw_odd = [Fraction(rng.randint(1, 60), rng.choice((1, 2, 3, 4))) for _ in range(n)]
        raw_even = [Fraction(rng.randint(1, 60), rng.choice((1, 2, 3, 4))) for _ in range(n)]
        parts_odd = [Fraction(180) * r / sum(raw_odd) for r in raw_odd]
        parts_even = [Fraction(180) * r / sum(raw_even) for r in raw_even]
    angles = []
    for a, b in zip(parts_odd, parts_even):
        angles.extend((a, b))
    seq = AngleSequence(tuple(angles))
    assert kawasaki(seq) and seq.is_flat
    return seq


def _composition(rng: random.Random, units: int, parts: int) -> list[int]:
    """A random composition of ``units`` into ``parts`` positive integers."""
    cuts = sorted(rng.sample(range(1, units), parts - 1)) if parts > 1 else []
    edges = [0] + cuts + [units]
    return [edges[i + 1] - edges[i] for i in range(parts)]


def corpus_sequences(
    seed: int = 20250810, per_size: int = 50, sizes: tuple[int, ...] = (2, 4, 6, 8)
) -> list[AngleSequence]:
    """A deterministic mixed corpus of exact closure-satisfying sequences."""
    rng = random.Random(seed)
    out: list[AngleSequence] = []
    for m in sizes:
        seen = set()
        for made in range(per_size):
            seq = random_flat_sequence(rng, m, pooled=(made % 2 == 1))
            for _ in range(20):  # prefer fresh sequences, accept repeats eventually
                if seq.angles not in seen:
                    break
                seq = random_flat_sequence(rng, m, pooled=(made % 2 == 1))
            seen.add(seq.angles)
            out.append(seq)
    return out
