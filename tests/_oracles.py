"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the recursive implementations in the package: the
shuffle oracle enumerates letter placements, the quasi-shuffle oracle walks
the merge grid from the left, and both count multiplicities directly.  The
float chain oracle is the one-chain-at-a-time DP that the package's shared
prefix walk replaced; the walk must reproduce its floats bit for bit.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from mzvkit.algebra import Index, LinComb, Word, word_of_index
from mzvkit.finite_sums import ConstraintChain


def shuffle_oracle(a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """All interleavings of two letter tuples, with multiplicity."""
    out: dict[tuple[int, ...], int] = {}
    total = len(a) + len(b)
    for positions in itertools.combinations(range(total), len(a)):
        letters: list[int | None] = [None] * total
        for letter, pos in zip(a, positions):
            letters[pos] = letter
        rest = iter(b)
        word = tuple(next(rest) if x is None else x for x in letters)
        out[word] = out.get(word, 0) + 1
    return out


def quasi_shuffle_oracle(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """All merge-interleavings of two part tuples (left-to-right grid walk)."""
    out: dict[tuple[int, ...], int] = {}

    def walk(i: int, j: int, acc: tuple[int, ...]) -> None:
        if i == len(u) and j == len(v):
            out[acc] = out.get(acc, 0) + 1
            return
        if i < len(u):
            walk(i + 1, j, acc + (u[i],))
        if j < len(v):
            walk(i, j + 1, acc + (v[j],))
        if i < len(u) and j < len(v):
            walk(i + 1, j + 1, acc + (u[i] + v[j],))

    walk(0, 0, ())
    return out


def comb_from_letters(table: dict[tuple[int, ...], int]) -> LinComb:
    return LinComb((Word.from_letters(letters), Fraction(mult)) for letters, mult in table.items())


def comb_from_parts(table: dict[tuple[int, ...], int]) -> LinComb:
    return LinComb((word_of_index(Index(parts)), Fraction(mult)) for parts, mult in table.items())


def chain_value_f_oracle(chain: ConstraintChain, N: int) -> float:
    """One chain's float64 sum: a full weight row per step, then a cumsum and a product."""
    if not chain.steps:
        return 1.0
    if N == 1:
        return 0.0
    n = np.arange(1, N, dtype=np.float64)
    rev = np.float64(N) - n
    values: np.ndarray | None = None
    for step in chain.steps:
        w = rev ** float(-step.a) * n ** float(-step.b)
        if values is None:
            values = w
            continue
        csum = np.cumsum(values)
        prefix = np.concatenate(([0.0], csum[:-1])) if step.strict else csum
        values = w * prefix
    assert values is not None
    return float(values.sum())
