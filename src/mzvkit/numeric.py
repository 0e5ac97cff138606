"""Floating evaluation: nested zeta limits, polylogarithms, rate fitting.

Exact rational evaluation lives in :mod:`mzvkit.finite_sums`; this module
holds everything floating: MZV limits from the 1/2-Hoelder convolution (each
MZV a finite sum of products of two nested polylogarithms at 1/2, in float64
with a certified error bound, no extended precision; the series of every
prefix of a word come from one pass over the word, and those of its dual
suffixes from one pass over its dual), the nested
polylogarithm power series (stopped on a certified tail bound; its rounding
term is an allowance, not a certificate), the float64 arithmetic of the
chain DP for large N (where exact rationals are hopeless), and the log-rate
fitter that turns O(N^-1 log^a N) claims into checkable statements.

The float chain sums run the same depth-first prefix-trie walk as the exact
ones (:class:`mzvkit.finite_sums.ChainWalk` over :class:`FloatRows`).  A walk
runs at the largest N of a grid and reads each chain's sum at every N of it:
plain chains, whose rows at N are prefixes of their rows at any larger N,
take one walk for a whole grid, and flat and natural chains, whose
(N - n) ** -a weights change with N, one walk per N.  :func:`chain_value_f`
walks a one-point grid.  The float of each word is kept in a table per
(N, variant) that lives across calls.  :func:`walk_words_f` walks the words
of a set missing there, through :meth:`~mzvkit.finite_sums.ChainWalk.walk`,
once per grid, so that a campaign walks each distinct chain once, and
returns the tables of its grid.  :func:`zn_read_f` is the one read step: it
forms a combination's float at each N from such tables, and walks nothing.
:func:`zn_apply_f` is the two in turn, walking its own missing words; a rate
campaign keeps the tables of its own walk and reads each case's
combinations with :func:`zn_read_f` alone.  The weight rows are slices of one
read-only table of m ** -e per exponent e, shared by every walk:
n ** -b over n = 1..N-1 is the table's first N - 1 entries and (N - n) ** -a
the same slice reversed.  A table grows by powering only its new entries,
and each walk trims the tables to its own exponents, so that memory follows
the latest walk.  Every float equals that of evaluating each chain on its
own at its N: the same power per weight (numpy's ``pow`` of a value does not
depend on where it sits in an array), the same sequential ``cumsum``, whose
first m entries are the ``cumsum`` of the first m values bit for bit, so that
the children of a trie node share one, ``.sum()`` over the first N - 1
entries of the last row, and the words combined as ``float(c) * value`` in
term order.

:func:`walk_chains_f` walks any set of chains, such as the R sums, once per
N, and keeps nothing.

The rate campaigns evaluate whole grids in one call: :func:`zn_apply_f` over
a sequence of N, and :func:`li_value` over a sequence of z, building the
inner sums of each chunk of its series, which do not depend on z, once for
every point; :func:`_li_series`, the pass under :func:`li_value`, does so
for a set of indices, sharing the power rows and the inner running sums of
each chunk among them.  All give the floats of their one-point calls.

The weight rows are numpy's vectorised ``pow`` (``np.arange(...) ** -e``),
which does not depend on where a value sits in the array, but is not
correctly rounded.  With numpy 2.4.6 on an x86-64 CPU with AVX-512, about
5% of the m ** -e (e = 2..5, m < 2^19, 20,000 samples each) differ from
``1 / m**e``, and numpy's scalar ``pow`` differs from its array ``pow`` on
about as many.  So the float sums, and the reports that read them, are
reproducible on one numpy build and CPU, not across them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import Index, LinComb, Word, as_index, index_of_word, word_of_index
from .errors import CapExceededError, DomainError
from .finite_sums import ChainWalk, ConstraintChain, RArgs, Step, variant_chain, word_chain

EULER_GAMMA = 0.5772156649015328606065120900824024

MIN_TOL = 1e-12
DEFAULT_MZV_TOL = 1e-7
DEFAULT_LI_TOL = 1e-9
RATE_SLACK = 1.25  # factor a normalized residual may rise over its running minimum in a rate fit
HALF_POINT_TERMS = 64  # terms of each half-point series at tier 0
LI_TERM_CAP = 1 << 27  # terms li_value sums before it gives up on a point


@dataclass(frozen=True)
class Real:
    """A floating value with an absolute error bound.

    From :func:`mzv` and :func:`eval_reg_polynomial` the bound is a
    certificate: series tail bounds and MZV bounds plus bounds on float64
    rounding.  From :func:`li_value` it is a certified series tail bound plus
    a relative rounding allowance, which is not a certificate.
    """

    value: float
    error_bound: float

    def __post_init__(self) -> None:
        if self.error_bound < 0 or not math.isfinite(self.error_bound):
            raise ValueError("error bound must be finite and non-negative")

    def __float__(self) -> float:
        return self.value

    def serialize(self) -> dict[str, str]:
        return {"value": repr(self.value), "errorBound": repr(self.error_bound)}


@functools.lru_cache(maxsize=None)
def _half_points(parts: tuple[int, ...], terms: int) -> tuple[tuple[float, float], ...]:
    """L(v) and a certified bound for every prefix v of the word of ``parts``, shortest first.

    L(v) is the iterated integral of v, read backwards, over 1/2 > t > 0: for
    the index k of v, the nested polylogarithm at 1/2,

        L(v) = sum over 0 < m_1 < ... < m_r of 2^-m_r / prod m_i^k_i,

    summed in float64 prefix sums over m_r <= ``terms``; L of the empty word
    is 1.  One walk over the parts serves every prefix: the prefixes that end
    in e1 e0^(p-1) inside part j, of index (k_1, ..., k_(j-1), p), all read
    the row of the sums over the j - 1 variables below m.  Every summand is
    non-negative, so the rounding bound is relative to the value.
    """
    m = np.arange(1, terms + 1)
    inner = np.ones(terms)  # inner[m - 1]: the sum over the variables below m
    points = [(1.0, 0.0)]
    for depth, k in enumerate(parts, 1):
        for p in range(1, k + 1):
            value = float(np.sum(np.ldexp(inner * _inverse_powers(p, terms), -m)))
            # per level: one rounded power, one product and fewer than ``terms`` additions
            rounding = _gamma(depth * (terms + 2)) * value
            points.append((value, rounding + _series_tail(parts[: depth - 1] + (p,), 0.5, terms + 1)))
        inner = np.concatenate(([0.0], np.cumsum(inner * _inverse_powers(k, terms))[:-1]))
    return tuple(points)


def _series_tail(parts: tuple[int, ...], z: float, lo: int) -> float:
    """A certified bound on the terms m >= ``lo`` of the nested polylogarithm series of ``parts`` at z.

    With r = len(parts) and q = r - 1, the summand at m is z^m m^-k_r g(m),
    where g(m) = sum over 0 < m_1 < ... < m_q < m of prod m_i^-k_i.  For z
    in (0, 1) every summand is non-negative, and as every k_i >= 1, g(m) is
    at most e_q(1, 1/2, ..., 1/(m-1)) <= H_(m-1)^q / q! <= (1 + log m)^q / q!.
    So the summand at m is at most b(m) = z^m m^-k_r (1 + log m)^q / q!.
    For m >= lo, as (m / (m + 1))^k_r < 1 and log(1 + 1/m) <= 1/m,

        b(m + 1) / b(m) <= z (1 + log(1 + 1/m) / (1 + log m))^q
                        <= z exp(q / (m (1 + log m))) <= rho = z exp(q / (lo (1 + log lo))),

    so the terms from lo on sum to at most b(lo) / (1 - rho) when rho < 1;
    otherwise the bound is infinite.

    In float64 (u = 2^-53, libm within an ulp), rho is rounded up by 8 + 8x
    ulps, x being its exponent: x carries a relative error of 5u, so rho
    loses at most 5x + 3 ulps.  The bound is exp(log b(lo) - log1p(-rho)).
    Each of its five logs is within 9u of its own magnitude and their sum
    adds at most 4u of the sum S of the magnitudes, so the exponent is
    raised by 2^-48 S = 32u S; one float step up then covers exp's own
    rounding and turns an underflow into the least positive float.
    """
    q = len(parts) - 1
    x = q / (lo * (1.0 + math.log(lo)))
    rho = z * math.exp(x)
    rho += (8.0 + 8.0 * x) * math.ulp(rho)
    if rho >= 1.0:
        return math.inf
    logs = (
        lo * math.log(z),
        -parts[-1] * math.log(lo),
        q * math.log(1.0 + math.log(lo)),
        -math.lgamma(q + 1),
        -math.log1p(-rho),
    )
    return math.nextafter(math.exp(sum(logs) + 2.0 ** -48 * sum(map(abs, logs))), math.inf)


@functools.lru_cache(maxsize=None)
def _inverse_powers(k: int, terms: int) -> np.ndarray:
    """1 / m^k for m = 1..terms, each correctly rounded (integer true division); read-only."""
    powers = np.array([1 / m ** k for m in range(1, terms + 1)])
    powers.flags.writeable = False
    return powers


def _gamma(count: int) -> float:
    """Relative error bound of ``count`` float64 roundings on non-negative terms.

    The classical bound is count * u / (1 - count * u) with u = 2^-53; the
    factor 1.01 covers it while count * u < 0.009, and the rounding of the
    bound arithmetic itself.
    """
    return 1.01 * count * 2.0 ** -53


@functools.lru_cache(maxsize=None)
def _limit_with_error(parts: tuple[int, ...], tier: int) -> tuple[float, float]:
    """zeta(parts) and a certified bound from the 1/2-Hoelder convolution.

    The word w = w_1 ... w_n of ``parts``, read backwards, is the word of the
    iterated integral of zeta(parts) over 1 > t_1 > ... > t_n > 0.  Splitting
    that integral at t = 1/2 and substituting t -> 1 - t above the split
    (Borwein, Bradley, Broadhurst and Lisonek, "Special values of multiple
    polylogarithms", Trans. AMS 353, 2001) gives

        zeta(w) = sum over i = 0..n of L(w_1 ... w_i) * L(dual(w_(i+1) ... w_n)),

    two half-point series per term, both converging like 2^-m.  Term i reads
    the head from the pass of :func:`_half_points` over w at prefix i and the
    tail from the pass over dual(w) at prefix n - i, since dual(w_(i+1) ... w_n)
    is a prefix of dual(w).  ``tier`` picks HALF_POINT_TERMS << tier terms
    per series.
    """
    terms = HALF_POINT_TERMS << tier
    # the dual word: reversed, with e0 and e1 swapped; its prefixes are the duals of w's suffixes
    letters = word_of_index(Index(parts)).letters()
    dual = index_of_word(Word.from_letters(1 - x for x in reversed(letters))).parts
    heads, tails = _half_points(parts, terms), _half_points(dual, terms)
    value = bound = 0.0
    for (head, head_err), (tail, tail_err) in zip(heads, reversed(tails)):
        if math.isinf(head_err + tail_err):
            return math.nan, math.inf  # a series with no certified tail at this tier
        value += head * tail
        bound += head_err * tail + (head + head_err) * tail_err
    # one rounded product per term and the sum of n + 1 non-negative terms
    return value, bound + _gamma(len(heads)) * value


def mzv(k: Index | Iterable[int], tol: float = DEFAULT_MZV_TOL) -> Real:
    """Multiple zeta value of an admissible index, with a certified |error| <= tol.

    An index whose bound is finite and at most ``tol`` at neither tier raises
    :class:`~mzvkit.errors.CapExceededError`, also when ``tol`` is infinite.
    """
    k = as_index(k)
    if not k.admissible:
        raise DomainError(f"index ({k}) is not admissible; the nested series diverges")
    if not tol >= MIN_TOL:
        raise DomainError(f"tolerance {tol} must be at least the supported precision {MIN_TOL}")
    if not k.parts:
        return Real(1.0, 0.0)
    for tier in (0, 1):
        value, err = _limit_with_error(k.parts, tier)
        if err <= tol and math.isfinite(err):
            return Real(value, err)
    raise CapExceededError(f"could not reach tolerance {tol} for index ({k}); bound {err:.3e}")


def euler_gamma() -> Real:
    return Real(float(EULER_GAMMA), 4e-16)


def _grid(x) -> tuple[list, bool]:
    """The points of a scalar or sequence argument, and whether it was a scalar."""
    return ([x], True) if isinstance(x, numbers.Real) else (list(x), False)


def li_value(
    k: Index | Iterable[int], z: float | Sequence[float], tol: float = DEFAULT_LI_TOL
) -> Real | list[Real]:
    """Nested polylogarithm Li_k(z) via its power series, truncated by a certified tail bound.

    ``z`` is one point or a sequence of points; a sequence gives one
    :class:`Real` per point.  The series runs in chunks of terms, and the
    inner sums of a chunk, which do not depend on z, are built once for every
    point still summing.  Each point stops at the chunk where its tail bound
    (see :func:`_series_tail`) falls below ``tol / 2``, as it would alone, so
    every float equals that of a call at the point on its own.  The error
    bound is that tail bound plus a relative rounding allowance, which is not
    a certificate.  A point whose tail bound is still at least ``tol / 2``
    after :data:`LI_TERM_CAP` terms raises
    :class:`~mzvkit.errors.CapExceededError`.  The pass is
    :func:`_li_series` over the one index, which prop-asymp-Li runs over all
    its indices at once, with the floats of a call per index.
    """
    k = as_index(k)
    zs, scalar = _grid(z)
    if not all(0.0 < x < 1.0 for x in zs):
        raise DomainError("z must lie strictly between 0 and 1")
    if not tol > 0:
        raise DomainError("tolerance must be positive")
    values = _li_series([k.parts], zs, tol)[k.parts]
    if isinstance(values, CapExceededError):
        raise values
    return values[0] if scalar else values


class _LiSum:
    """One index's running state in :func:`_li_series`: its totals, its tail bounds and the points still summing."""

    def __init__(self, parts: tuple[int, ...], points: int) -> None:
        self.parts = parts
        self.totals = [0.0] * points
        self.tails = [0.0] * points
        self.running = list(range(points)) if parts else []
        self.error: CapExceededError | None = None

    def result(self) -> list[Real] | CapExceededError:
        if self.error is not None:
            return self.error
        if not self.parts:
            return [Real(1.0, 0.0) for _ in self.totals]
        return [Real(total, tail + 1e-14 * (1.0 + abs(total))) for total, tail in zip(self.totals, self.tails)]


def _li_series(
    indices: Iterable[tuple[int, ...]], zs: list[float], tol: float
) -> dict[tuple[int, ...], list[Real] | CapExceededError]:
    """The power series of :func:`li_value` for every index of ``indices`` at every point of ``zs`` in one pass.

    The series, Li_k(z) = sum over m of z^m m^-k_r g(m) with g as in
    :func:`_series_tail`, runs in chunks of 2^14 terms.  g is the last of the
    running sums over the inner prefixes k_1 .. k_i of k, each continuing from
    the one before it and from its own carry, the sum of the chunks before.
    Per chunk, the row n ** -k of each part k and the running sums of each
    inner prefix, which depend on neither z nor the index that reads them,
    are formed once for every index still summing; each point still summing
    adds z^lo times the sum of its index's row g(m) m^-k_r against its own
    table of z^0 .. z^(2^14-1), built once per point for every index, where lo
    is the chunk's first m.  A point stops once :func:`_series_tail` from the
    first m not yet summed is below ``tol / 2``.  An index whose points have
    not all stopped after :data:`LI_TERM_CAP` terms gets a
    :class:`~mzvkit.errors.CapExceededError` naming its first such point,
    and stops; the others sum on.  Every index thus runs the chunks, stopping
    rule and arithmetic of its own pass, so that its floats equal those of
    its :func:`li_value` call.  The rounding term, 1e-14 (1 + |value|), is an
    allowance and not a certificate.

    Returns, by index, one :class:`Real` per point, or the error; the empty
    index is 1 at every point.
    """
    chunk = 1 << 14
    tables = [_power_table(z, chunk) for z in zs]
    sums = [_LiSum(parts, len(zs)) for parts in dict.fromkeys(indices)]
    carries: dict[tuple[int, ...], float] = {}  # by inner prefix, its running sum over the chunks before
    lo = 1
    while summing := [s for s in sums if s.running]:
        n = np.arange(lo, lo + chunk, dtype=np.float64)
        inverse = _li_powers(n, {part for s in summing for part in s.parts})
        # every inner prefix sorts after its own prefixes, so the row it continues is formed first
        g = {(): np.ones_like(n)}
        for prefix in sorted({s.parts[:i] for s in summing for i in range(1, len(s.parts))}):
            term = g[prefix[:-1]] * inverse[prefix[-1]]
            csum = np.cumsum(term)
            carry = carries.get(prefix, 0.0)
            g[prefix] = carry + csum - term
            carries[prefix] = carry + float(csum[-1])
        for s in summing:
            row = g[s.parts[:-1]] * inverse[s.parts[-1]]
            for j in s.running:
                s.totals[j] += zs[j] ** lo * float(np.sum(tables[j] * row))
        lo += chunk
        for s in summing:
            for j in s.running:
                s.tails[j] = _series_tail(s.parts, zs[j], lo)
            s.running = [j for j in s.running if not s.tails[j] < tol / 2.0]
            if s.running and lo - 1 > LI_TERM_CAP:
                s.error = CapExceededError(
                    f"series for z={zs[s.running[0]]} did not reach tolerance {tol} within {lo - 1} terms"
                )
                s.running = []
    return {s.parts: s.result() for s in sums}


def _li_powers(n: np.ndarray, parts: Iterable[int]) -> dict[int, np.ndarray]:
    """The row n ** -k of a chunk of :func:`_li_series`, for each part k."""
    return {part: n ** float(-part) for part in parts}


def _power_table(z: float, size: int) -> np.ndarray:
    """z^0 .. z^(size - 1) for ``size`` a power of two, by doubling.

    Entry j is the product of the values z ** 2^i over the bits of j, each
    within an ulp, so it lies within 2 log2(size) roundings of z^j.
    """
    table = np.empty(size)
    table[0] = 1.0
    width = 1
    while width < size:
        np.multiply(table[:width], z ** width, out=table[width:2 * width])
        width *= 2
    return table


def eval_reg_polynomial(p, t: float, zetas: dict[Word, Real] | None = None) -> Real:
    """An H0-coefficient polynomial at a real point: the one certified float sum of MZV combinations.

    The value is one running sum of float(q) * zeta(w) * t ** i, by
    coefficient and then term.  ``zetas`` memoizes each word's :func:`mzv`;
    a word missing from it must lie in H0.  For n terms the bound is the
    MZVs' own bounds, sum |float(q)| * zeta.error_bound * |t ** i|, plus
    the rounding gamma_(n+1) * sum |term| of float(q), the products and the
    additions, with one rounding more when the degree is at least 1 (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2002, ch. 4), plus for
    i >= 2 the exact error of t ** i times sum |q| (zeta + its bound),
    rounded up, so that no accuracy of ``pow`` is assumed.  :func:`_gamma`'s
    1% margin covers second-order terms such as the rounding of the bound's
    own sums: every MZV up to weight 12 has a bound below 1e-13 of its value.
    """
    zetas = {} if zetas is None else zetas
    value = err = total = 0.0
    count = powers = 0  # powers: the exact, weighted errors of the t ** i, a Fraction once one is inexact
    for i, c in enumerate(p.coeffs):
        scale = t ** i
        size = abs(scale)
        for w, q in c.items():
            zeta = zetas.get(w)
            if zeta is None:
                if not w.in_h0:
                    raise DomainError("polynomial coefficients must be supported in H0")
                zeta = zetas[w] = mzv(index_of_word(w), DEFAULT_MZV_TOL)
            coefficient = float(q)
            term = coefficient * zeta.value * scale
            value += term
            total += abs(term)
            err += abs(coefficient) * zeta.error_bound * size
        count += len(c)
        if i >= 2 and c:
            mass = sum(abs(float(q)) * (zetas[w].value + zetas[w].error_bound) for w, q in c.items())
            powers += abs(Fraction(t) ** i - Fraction(scale)) * Fraction(mass)
    err += _gamma(count + (1 if len(p.coeffs) == 1 else 2)) * total
    if powers:
        err += math.nextafter(float(powers), math.inf)
    return Real(value, err)


# ---------------------------------------------------------------------------
# the chain DP in float64, for N far beyond exact-rational reach

# m ** -e for m = 1, 2, ... per exponent e, read-only; FloatRows grows it and
# trims it to the exponents of the latest walk
_INVERSE_POWERS: dict[int, np.ndarray] = {}
_NO_POWERS = np.empty(0)


class FloatRows:
    """The float64 arithmetic of :class:`mzvkit.finite_sums.ChainWalk` over a sorted grid ``ns``.

    The walk runs at N = ``ns[-1]``; row entry n - 1 belongs to the summation
    value n.  A chain's total is the tuple of the sums of the first M - 1
    entries of its last row, one per M in ``ns``.  That is its sum at M for
    M = N, and for every M when no step has an (N - n) ** -a weight, as in a
    plain chain: its weight rows at M are the first M - 1 entries of those at
    N, sequential ``cumsum`` and elementwise products keep prefixes, and
    ``.sum()`` of a contiguous prefix equals that of the same row on its own.
    Flat and natural chains take one-point grids.

    ``exponents`` are the non-zero exponents of the chains to be walked.  Each
    weight row is a read-only view of the shared table of its exponent
    (reversed for the factor (N - n) ** -a), or one product of two such views
    when a and b are both non-zero: the factor x ** -0.0 is exactly 1.0, so
    leaving it out changes no float.  The views keep their tables alive, so a
    walk still works after a later one has trimmed the shared tables.

    The walk forms one row per distinct prefix and the running sums of each
    trie node with children once.  Every row of a walk level, the index of
    its step in its chain, is written into that level's buffer, made at its
    first use, and a node's running sums overwrite its row.  A first step's
    row is a weight row, so its running sums take an array of their own, the
    only one beyond the level buffers, which
    :class:`~mzvkit.finite_sums.ChainWalk` drops once that step's last child
    is formed.
    """

    def __init__(self, ns: Sequence[int], exponents: Iterable[int]) -> None:
        self.ns = ns
        self.one = (1.0,) * len(ns)
        N = ns[-1]
        wanted = set(exponents)
        for e in _INVERSE_POWERS.keys() - wanted:
            del _INVERSE_POWERS[e]
        self.powers: dict[int, np.ndarray] = {}
        for e in wanted:
            table = _INVERSE_POWERS.get(e, _NO_POWERS)
            if len(table) < N - 1:
                grown = np.arange(len(table) + 1, N, dtype=np.float64) ** float(-e)
                table = np.concatenate((table, grown)) if len(table) else grown
                table.flags.writeable = False
                _INVERSE_POWERS[e] = table
            self.powers[e] = table[: N - 1]
        self._buffers: dict[int, np.ndarray] = {}  # the rows by walk level

    def weights(self, a: int, b: int) -> np.ndarray:
        if b == 0:
            return self.powers[a][::-1]
        if a == 0:
            return self.powers[b]
        return self.powers[a][::-1] * self.powers[b]

    def _buffer(self, level: int) -> np.ndarray:
        """The row of this walk level, made at its first use and overwritten by every later row there."""
        out = self._buffers.get(level)
        if out is None:
            out = self._buffers[level] = np.empty(self.ns[-1] - 1)
        return out

    def cumulate(self, values: np.ndarray, level: int) -> np.ndarray:
        """The running sums of a row: in place past the first level, whose rows are shared weight rows."""
        return np.cumsum(values, out=values) if level else np.cumsum(values)

    def weigh(self, weights: np.ndarray, sums: np.ndarray, strict: bool, level: int) -> np.ndarray:
        """Each weight times the running sum below (strict) or up to (non-strict) its n, in the row of ``level``."""
        out = self._buffer(level)
        if not strict:
            return np.multiply(weights, sums, out=out)
        out[:1] = 0.0
        np.multiply(weights[1:], sums[:-1], out=out[1:])
        return out

    def step(self, weights: np.ndarray, values: np.ndarray, strict: bool, level: int) -> np.ndarray:
        """:meth:`weigh` on the running sums of ``values``, summed into the row of ``level``."""
        out = self._buffer(level)
        if strict:
            out[:1] = 0.0
            np.cumsum(values[:-1], out=out[1:])
        else:
            np.cumsum(values, out=out)
        return np.multiply(weights, out, out=out)

    def total(self, values: np.ndarray, steps: tuple[Step, ...]) -> tuple[float, ...]:
        """The chain's sum at each N of the grid, from its last row."""
        return tuple(float(values[: n - 1].sum()) for n in self.ns)


def _exponents(chains: Iterable[tuple[Step, ...]]) -> set[int]:
    """The non-zero weight exponents of the chains with these steps."""
    return {e for steps in chains for _, a, b in steps for e in (a, b) if e}


def chain_value_f(chain: ConstraintChain, N: int) -> float:
    """Chain sum over 0 < n_1 R n_2 R ... R n_k < N in float64, in a walk of its own."""
    if N < 1:
        raise DomainError("N must be a positive integer")
    return ChainWalk(FloatRows((N,), _exponents([chain.steps]))).value(chain.steps)[0]


def zeta_lt_f(k: Index | Iterable[int], N: int) -> float:
    return chain_value_f(ConstraintChain.plain(as_index(k)), N)


def zeta_flat_f(k: Index | Iterable[int], N: int) -> float:
    return chain_value_f(ConstraintChain.flat(as_index(k)), N)


def zeta_natural_f(k: Index | Iterable[int], N: int) -> float:
    return chain_value_f(ConstraintChain.natural(as_index(k)), N)


def r_value_f(args: RArgs, N: int) -> float:
    if N < 2:
        raise DomainError("R values require N >= 2")
    return chain_value_f(ConstraintChain.from_rargs(args), N)


@functools.lru_cache(maxsize=None)
def _word_value_f(N: int, variant: str) -> dict[Word, float]:
    """The float sums of the words walked so far at (N, variant), filled by :func:`walk_words_f`."""
    return {}


def walk_words_f(words: Iterable[Word], ns: Sequence[int], variant: str = "plain") -> list[dict[Word, float]]:
    """Walk the words missing from the float tables at the N of ``ns`` into them.

    For the plain variant that is one walk over the whole grid, at its
    largest N; for flat and natural chains one walk per N.  Only a word
    missing at some N of a walk's grid has its chain read, from
    :func:`~mzvkit.finite_sums.word_chain`, and each walk takes the missing
    chains through :meth:`~mzvkit.finite_sums.ChainWalk.walk`, so it walks
    their prefix trie once.  Returns the tables of the N of ``ns``, in order.  Every word must
    lie in H1; an unknown variant raises DomainError.
    """
    variant_chain(variant)  # an unknown variant raises, also for no words
    known = {n: _word_value_f(n, variant) for n in sorted(set(ns))}
    words = set(words)
    for group in [list(known)] if variant == "plain" else [[n] for n in known]:
        tables = [known[n] for n in group]
        missing = {w: word_chain(w, variant).steps for w in words if any(w not in table for table in tables)}
        if missing:
            _walk_f(missing, group, tables)
    return [known[n] for n in ns]


def _walk_f(chains: dict, group: Sequence[int], tables: Sequence[dict]) -> None:
    """One walk over the sorted grid ``group``: the sum of each chain, steps by key, into the table of each N of it.

    The walk runs at the grid's largest N; a grid of more than one N is for
    chains with no (N - n) ** -a weight (see :class:`FloatRows`).
    """
    walk = ChainWalk(FloatRows(group, _exponents(chains.values())))
    walk.walk(chains.values())
    for key, steps in chains.items():
        for table, value in zip(tables, walk.sums[steps]):
            table[key] = value


def walk_chains_f(chains: Iterable[ConstraintChain], ns: Sequence[int]) -> dict[ConstraintChain, list[float]]:
    """The float sum of each chain at each N of ``ns``, in one walk per N over the prefix trie of them all.

    Any chain may have (N - n) ** -a weights, as the R sums do, so every N
    takes a walk of its own; each float equals that of :func:`chain_value_f`
    at its N.  Nothing outlives the call.
    """
    if min(ns, default=1) < 1:
        raise DomainError("N must be a positive integer")
    chains = {chain: chain.steps for chain in chains}
    tables: list[dict] = [{} for _ in ns]
    for n, table in zip(ns, tables):
        _walk_f(chains, (n,), (table,))
    return {chain: [table[chain] for table in tables] for chain in chains}


def zn_read_f(x: LinComb, tables: Sequence[dict[Word, float]]) -> list[float]:
    """The float of ``x`` at each N whose word table, as :func:`walk_words_f` returns it, is in ``tables``.

    It only reads: a word missing from a table raises KeyError.  Each word's
    float is combined as ``float(c) * value`` in term order, each coefficient
    converted once, not once per N.
    """
    terms = [(w, float(c)) for w, c in x.items()]
    return [sum(c * table[w] for w, c in terms) for table in tables]


def zn_apply_f(x: LinComb, N: int | Sequence[int], variant: str = "plain") -> float | list[float]:
    """Float64 twin of :func:`mzvkit.finite_sums.zn_apply`.

    ``N`` is one value or a sequence of them; a sequence gives one float per
    N.  Each word's float comes from the table of its (N, variant), which
    outlives the call; :func:`walk_words_f` walks the words missing there
    into it and returns the tables, so a word already known at every N costs
    no chain, and :func:`zn_read_f` reads ``x`` from them.  An unknown
    variant, or a word outside H1 at any N, raises DomainError.
    """
    ns, scalar = _grid(N)
    if min(ns, default=1) < 1:
        raise DomainError("N must be a positive integer")
    values = zn_read_f(x, walk_words_f([w for w, _ in x.items()], ns, variant))
    return values[0] if scalar else values


def _pairwise_sum(block: Callable[[int, int], np.ndarray], n: int, lo: int = 0) -> float:
    """The float ``np.sum`` gives for entries ``lo .. lo+n-1``, formed a block at a time.

    ``block(a, b)`` forms entries ``a .. b-1`` as a contiguous float64 array.
    numpy sums such an array by pairwise summation (its ``pairwise_sum``,
    unchanged since numpy 1.9; ``tests/test_numeric.py`` pins it): a range
    of more than 128 entries splits at ``n // 2`` rounded down to a multiple
    of 8, and the two halves are summed the same way and added.  That tree
    depends only on the range's length, so splitting here by the same rule
    down to ranges of at most ``2^16`` entries, and handing each to
    ``np.sum`` whole, makes exactly numpy's additions in numpy's order: the
    same float, while at most one block of ``2^16`` floats is held at a time.
    """
    if n <= 1 << 16:
        return float(np.sum(block(lo, lo + n)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(block, half, lo) + _pairwise_sum(block, n - half, lo + half)


def harmonic_number_f(n: int) -> float:
    """H_n as float64: bit for bit ``np.sum`` of the n reciprocals ``1/m``.

    The reciprocals are formed and summed in blocks along numpy's own
    pairwise tree (:func:`_pairwise_sum`), so memory is bounded by one block
    and time is linear in n.  Each block's reciprocals overwrite its
    integers in place: one array per block, not two.
    """
    if n < 0:
        raise DomainError("harmonic numbers need n >= 0")

    def reciprocals(lo: int, hi: int) -> np.ndarray:
        terms = np.arange(lo + 1, hi + 1, dtype=np.float64)
        return np.divide(1.0, terms, out=terms)

    return _pairwise_sum(reciprocals, n)


# ---------------------------------------------------------------------------
# log-rate fitting

@dataclass(frozen=True)
class RateFit:
    """Outcome of normalizing residuals by N / log^a N over a tail window."""

    observations: tuple[tuple[float, float], ...]
    fitted_log_exponent: int | None
    bounded_constant: float | None
    ok: bool
    a_max: int

    def to_dict(self) -> dict:
        return {
            "observations": [[n, r] for n, r in self.observations],
            "fittedLogExponent": self.fitted_log_exponent,
            "boundedConstant": self.bounded_constant,
            "ok": self.ok,
            "aMax": self.a_max,
            "slack": RATE_SLACK,
        }


def fit_log_rate(obs: Sequence[tuple[float, float]], *, a_max: int = 6) -> RateFit:
    """Find the smallest integer a with residual * N / log^a N bounded.

    The normalized sequence must stay within the factor :data:`RATE_SLACK` of
    its running minimum over the tail half of the observations (geometric N
    schedules expected).
    A failure flag, not an exception, reports that no exponent qualifies.
    """
    points = tuple((float(n), abs(float(r))) for n, r in obs)
    if len(points) < 5:
        raise DomainError("rate fitting needs at least 5 observations")
    ns = [n for n, _ in points]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("N values must be strictly increasing")
    if ns[0] < 2:
        raise DomainError("N values must be at least 2")
    if any(not math.isfinite(r) for _, r in points):
        raise DomainError("residuals must be finite")

    tail = points[len(points) // 2 :]
    for a in range(a_max + 1):
        ys = [r * n / math.log(n) ** a for n, r in tail]
        running = ys[0]
        good = True
        for y in ys[1:]:
            if y > RATE_SLACK * running:
                good = False
                break
            running = min(running, y)
        if good:
            return RateFit(points, a, max(ys), True, a_max)
    return RateFit(points, None, None, False, a_max)
