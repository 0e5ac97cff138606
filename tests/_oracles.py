"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the recursive implementations in the package: the
shuffle oracle enumerates letter placements, the quasi-shuffle oracle walks
the merge grid from the left, and both count multiplicities directly.  The
float chain oracle is the one-chain-at-a-time DP that the package's shared
prefix walk replaced; the walk must reproduce its floats bit for bit, and
form each row and each running sum of its prefix trie once (``trie_work``).
The half-point oracles sum each prefix's series, and the 1/2-Hoelder
convolution, one word at a time, as the package did before one pass per word
served every prefix; the pass must reproduce their floats bit for bit.  The
decomposition oracles are the recursive elimination that the package's
closed forms replaced; the closed forms must reproduce them exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from mzvkit import numeric as num
from mzvkit.algebra import Index, LinComb, Word, harmonic, index_of_word, shuffle, word_of_index
from mzvkit.finite_sums import ConstraintChain
from mzvkit.regularization import RegPolynomial


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


def trie_work(chains) -> tuple[int, int]:
    """The rows and the running sums that one walk of these chains forms, one each per trie node.

    A row for each distinct prefix past the first step, whose row is a weight
    row, and running sums for each distinct prefix that a longer one extends.
    """
    prefixes = {c[:i] for c in chains for i in range(1, len(c) + 1)}
    return sum(len(q) > 1 for q in prefixes), len({q[:-1] for q in prefixes if len(q) > 1})


def counting_rows(base: type, work: Counter) -> type:
    """``base``, the arithmetic of a chain walk, counting in ``work`` the rows it forms and the running sums it makes.

    ``step`` does both, ``weigh`` forms a row from running sums and
    ``cumulate`` makes them.  ``work`` is a class attribute, which an
    instance may shadow with a counter of its own.
    """

    class Counting(base):
        def step(self, weights, values, strict, level):
            self.work["rows"] += 1
            self.work["cumulations"] += 1
            return super().step(weights, values, strict, level)

        def weigh(self, weights, sums, strict, level):
            self.work["rows"] += 1
            return super().weigh(weights, sums, strict, level)

        def cumulate(self, values, level):
            self.work["cumulations"] += 1
            return super().cumulate(values, level)

    Counting.work = work
    return Counting


@functools.lru_cache(maxsize=None)
def half_point_oracle(w: Word, terms: int) -> tuple[float, float]:
    """L(w) and its certified bound, walking every level of w on its own."""
    if w.is_empty:
        return 1.0, 0.0
    parts = index_of_word(w).parts
    m = np.arange(1, terms + 1)
    inner = np.ones(terms)
    for k in parts[:-1]:
        inner = np.concatenate(([0.0], np.cumsum(inner * num._inverse_powers(k, terms))[:-1]))
    value = float(np.sum(np.ldexp(inner * num._inverse_powers(parts[-1], terms), -m)))
    rounding = num._gamma(len(parts) * (terms + 2)) * value
    return value, rounding + num._series_tail(parts, 0.5, terms + 1)


def limit_with_error_oracle(parts: tuple[int, ...], terms: int) -> tuple[float, float]:
    """zeta(parts) and its bound, building the word of every head and every dual tail."""
    letters = word_of_index(Index(parts)).letters()
    value = bound = 0.0
    for i in range(len(letters) + 1):
        head, head_err = half_point_oracle(Word.from_letters(letters[:i]), terms)
        tail, tail_err = half_point_oracle(Word.from_letters(1 - x for x in reversed(letters[i:])), terms)
        if math.isinf(head_err + tail_err):
            return math.nan, math.inf
        value += head * tail
        bound += head_err * tail + (head + head_err) * tail_err
    return value, bound + num._gamma(len(letters) + 1) * value


@functools.lru_cache(maxsize=None)
def _e1_harmonic_power(t: int) -> LinComb:
    if t == 0:
        return LinComb.unit()
    return harmonic(_e1_harmonic_power(t - 1), LinComb.of_word(Word(1, 1)))


@functools.lru_cache(maxsize=None)
def _decompose_word(w: Word, product_name: str) -> RegPolynomial:
    """Eliminate w = v * e1^t: the t-th power of e1 times v hits w with
    coefficient t! (harmonic) or 1 (shuffle, taking the plain word e1^t) and
    otherwise only words with fewer trailing e1; recurse on the remainder."""
    t = w.trailing_e1_count()
    if t == 0:
        return RegPolynomial.constant(LinComb.of_word(w))
    v = w.drop_last(t)
    if product_name == "harmonic":
        head = harmonic(LinComb.of_word(v), _e1_harmonic_power(t))
        lead = math.factorial(t)
    else:
        head = shuffle(LinComb.of_word(v), LinComb.of_word(Word((1 << t) - 1, t)))
        lead = 1
    remainder = head - LinComb.of_word(w, lead)
    assert all(u.trailing_e1_count() < t for u in remainder.support())
    monomial = RegPolynomial.monomial(LinComb.of_word(v), t)
    return Fraction(1, math.factorial(t)) * monomial - Fraction(1, lead) * decompose_oracle(remainder, product_name)


def decompose_oracle(x: LinComb, product_name: str) -> RegPolynomial:
    """The H0-coefficient polynomial in T of x, by recursive elimination."""
    acc = RegPolynomial.zero()
    for w, c in x.items():
        acc = acc + c * _decompose_word(w, product_name)
    return acc
