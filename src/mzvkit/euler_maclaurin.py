"""Asymptotic expansion of truncated nested sums by recursive Euler-Maclaurin.

This is the reference engine of the tests: :func:`mzvkit.numeric.mzv` uses the
1/2-Hoelder convolution, and the tests check it against this independent
computation.  Nothing else in the package imports this module.

For an index (k_1, ..., k_r) the partial sums

    g_i(n) = sum over 0 < m_1 < ... < m_i < n of prod m_h^(-k_h),  i <= r,

are computed exactly (in extended precision) below a split point M, while for
m >= M each level is summed through the Euler-Maclaurin formula applied to the
previous level's expansion.  Every quantity stays inside the closed family
log^j(x) / x^s, so the result of each level is again an expansion

    g_i(n) = sum of coeff * log^j(n) / n^p   (valid for n >= M),

with numeric coefficients.  For an index whose last part is >= 2 the n^0 part
of the final expansion is a single constant: the limit of the nested sum.
With M around 2^16 and four correction terms the truncation error is far below
extended-double roundoff, so accuracy is limited by arithmetic, around 1e-13.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LD = np.longdouble

# B_{2v} / (2v)! for v = 1..5
_EM_FACTORS = (
    Fraction(1, 12),
    Fraction(-1, 720),
    Fraction(1, 30240),
    Fraction(-1, 1209600),
    Fraction(1, 47900160),
)

DEFAULT_SPLIT = 1 << 16
DEFAULT_ORDER = 4
DEFAULT_POWER_CAP = 4


def _ld(q: Fraction) -> LD:
    return LD(q.numerator) / LD(q.denominator)


def _derivative_terms(j: int, s: int, order: int) -> dict[tuple[int, int], int]:
    """Integer coefficients of the order-th derivative of log^j(x)/x^s."""
    terms: dict[tuple[int, int], int] = {(j, s): 1}
    for _ in range(order):
        nxt: dict[tuple[int, int], int] = {}
        for (jj, ss), c in terms.items():
            if jj > 0:
                key = (jj - 1, ss + 1)
                nxt[key] = nxt.get(key, 0) + c * jj
            key = (jj, ss + 1)
            nxt[key] = nxt.get(key, 0) - c * ss
        terms = nxt
    return terms


def _tail_pieces(
    j: int, s: int, M: int, log_m: LD, order: int
) -> tuple[LD, dict[tuple[int, int], LD]]:
    """Split sum over m in [M, n) of log^j(m)/m^s into const + expansion in n.

    Returns (const, growth) with growth mapping (j', p') to the coefficient of
    log^j'(n)/n^p'.  Uses the Euler-Maclaurin identity

        sum_{m=M}^{n-1} f(m) = int_M^n f + f(M)/2 - f(n)/2
                               + sum_v B_2v/(2v)! (f^(2v-1)(n) - f^(2v-1)(M)).
    """
    m_ld = LD(M)

    def at_m(jj: int, ss: int) -> LD:
        return log_m ** jj * m_ld ** LD(-ss)

    growth: dict[tuple[int, int], LD] = {}
    const = LD(0)

    def add(key: tuple[int, int], coeff: LD) -> None:
        growth[key] = growth.get(key, LD(0)) + coeff

    # antiderivative piece, F(n) - F(M)
    if s == 1:
        add((j + 1, 0), LD(1) / LD(j + 1))
        const -= log_m ** (j + 1) / LD(j + 1)
    else:
        u = 1 - s
        for t in range(j + 1):
            a_t = Fraction((-1) ** t * math.factorial(j), math.factorial(j - t) * u ** (t + 1))
            a_ld = _ld(a_t)
            add((j - t, s - 1), a_ld)
            const -= a_ld * log_m ** (j - t) * m_ld ** LD(u)

    # midpoint piece, f(M)/2 - f(n)/2
    add((j, s), LD(-0.5))
    const += LD(0.5) * at_m(j, s)

    # correction pieces
    for v in range(1, order + 1):
        factor = _ld(_EM_FACTORS[v - 1])
        for (jj, ss), c in _derivative_terms(j, s, 2 * v - 1).items():
            coeff = factor * LD(c)
            add((jj, ss), coeff)
            const -= coeff * at_m(jj, ss)

    return const, growth


def nested_sum_expansion(
    parts: tuple[int, ...],
    *,
    split: int = DEFAULT_SPLIT,
    order: int = DEFAULT_ORDER,
    power_cap: int = DEFAULT_POWER_CAP,
) -> dict[tuple[int, int], LD]:
    """Expansion coefficients {(j, p): c} of the partial nested sum at ``parts``."""
    if any(p < 1 for p in parts):
        raise ValueError("parts must be positive integers")
    if split < 16:
        raise ValueError("split point too small for the expansion to be valid")
    m = np.arange(1, split, dtype=LD)
    log_split = np.log(LD(split))
    g = np.ones(split - 1, dtype=LD)
    expansion: dict[tuple[int, int], LD] = {(0, 0): LD(1)}
    for k in parts:
        term = g * m ** LD(-k)
        const_total = LD(term.sum())
        next_exp: dict[tuple[int, int], LD] = {}
        for (j, p), coeff in expansion.items():
            const, growth = _tail_pieces(j, p + k, split, log_split, order)
            const_total += coeff * const
            for (jj, pp), c in growth.items():
                if pp <= power_cap:
                    key = (jj, pp)
                    next_exp[key] = next_exp.get(key, LD(0)) + coeff * c
        next_exp[(0, 0)] = next_exp.get((0, 0), LD(0)) + const_total
        expansion = next_exp
        g = np.concatenate((np.zeros(1, dtype=LD), np.cumsum(term)[:-1]))
    return expansion


def nested_sum_limit(
    parts: tuple[int, ...],
    *,
    split: int = DEFAULT_SPLIT,
    order: int = DEFAULT_ORDER,
) -> LD:
    """Limit of the nested sum for an index whose last part is >= 2."""
    if parts and parts[-1] < 2:
        raise ValueError("the nested sum diverges unless the last part is >= 2")
    if not parts:
        return LD(1)
    expansion = nested_sum_expansion(parts, split=split, order=order)
    stray = [key for key, c in expansion.items() if key[1] == 0 and key[0] > 0 and abs(c) > 1e-30]
    if stray:
        raise AssertionError(f"unexpected log growth {stray} for a convergent nested sum")
    return expansion[(0, 0)]
