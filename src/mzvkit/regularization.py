"""Decomposition of H1 into H0-coefficient polynomials in T, for both products.

Under the harmonic product (*) and under the shuffle product (sh) alike,
every H1 element is a unique polynomial in e1 with H0 coefficients.  Writing
T for e1 gives the decomposition; setting T to 0 gives the regularization
maps reg_* and reg_sh.  Below, u.v is the concatenation of words u and v.

Both decompositions are assembled from reg of single words.  Let delta drop
one trailing e1 from a word and send every other word to 0.  delta is a
derivation of both products with delta(e1) = 1, and it kills H0, so on the
polynomials it acts as d/dT.  Hence for w = u.e1^n, u empty or ending in e0,
the T^j coefficient of w is reg(u.e1^(n-j)) / j! under either product.

reg of one word has a closed form on each side:

* shuffle (Ihara-Kaneko-Zagier, Compositio Math. 142 (2006)):
  reg_sh(v.e0.e1^m) = (-1)^m (v sh e1^m).e0, and reg_sh(e1^m) = 0 for m >= 1,
  with the integer multiplicities of ``_shuffle_words``.
* harmonic: reg_* is an algebra map with reg_*(e1) = 0.  The product
  (u.e1^(n-1)) * e1 holds u.e1^n with multiplicity n, and every other word of
  it (``_harmonic_parts`` of the two words) has fewer trailing e1, so
  n reg_*(u.e1^n) = -reg_*((u.e1^(n-1)) * e1 - n u.e1^n) is a triangular
  recursion.

By induction on n, n! reg(u.e1^n) is an integer combination on both sides.
So only reg of each word is cached, as integer numerators over n!.  The T^j
coefficient of a combination is read from reg of its words less j trailing
e1 and summed in integers over one common denominator, with one
``Fraction`` per resulting term.  The star side reads only
``_harmonic_parts`` and the shuffle side only ``_shuffle_words``: neither
regularization is derived from the other.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import (
    Index,
    LinComb,
    Scalar,
    Word,
    _harmonic_parts,
    _shuffle_words,
    harmonic,
)
from .errors import DomainError

_E1 = LinComb.of_word(Word(1, 1))


@dataclass(frozen=True)
class RegPolynomial:
    """A polynomial in T whose coefficients are H0-supported combinations."""

    coeffs: tuple[LinComb, ...]

    def __post_init__(self) -> None:
        coeffs = list(self.coeffs)
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        if not coeffs:
            coeffs = [LinComb.zero()]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @classmethod
    def zero(cls) -> "RegPolynomial":
        return cls((LinComb.zero(),))

    @classmethod
    def constant(cls, c: LinComb) -> "RegPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c: LinComb, power: int) -> "RegPolynomial":
        return cls((LinComb.zero(),) * power + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and not self.coeffs[0]

    def coeff(self, i: int) -> LinComb:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else LinComb.zero()

    def __add__(self, other: "RegPolynomial") -> "RegPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return RegPolynomial(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __neg__(self) -> "RegPolynomial":
        return RegPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RegPolynomial") -> "RegPolynomial":
        return self + (-other)

    def __mul__(self, scalar: Scalar) -> "RegPolynomial":
        return RegPolynomial(tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__

    def serialize(self) -> list[tuple[int, list[tuple[str, str]]]]:
        """List of (exponent, serialized coefficient) pairs, ascending exponent."""
        return [(i, c.serialize()) for i, c in enumerate(self.coeffs)]

    def __str__(self) -> str:
        pieces = []
        for i, c in enumerate(self.coeffs):
            if c or (i == 0 and self.is_zero):
                term = f"({c})" if i == 0 else (f"({c})*T" if i == 1 else f"({c})*T^{i}")
                pieces.append(term)
        return " + ".join(pieces) if pieces else "0"


def poly_mul(p: RegPolynomial, q: RegPolynomial, product: Callable[[LinComb, LinComb], LinComb]) -> RegPolynomial:
    """Polynomial product with coefficient products taken by ``product``."""
    coeffs = [LinComb.zero()] * (p.degree + q.degree + 1)
    for i, ci in enumerate(p.coeffs):
        if not ci:
            continue
        for j, cj in enumerate(q.coeffs):
            if cj:
                coeffs[i + j] = coeffs[i + j] + product(ci, cj)
    return RegPolynomial(tuple(coeffs))


def _require_h1(x: LinComb, op: str) -> None:
    if not x.in_h1:
        raise DomainError(f"{op} requires support in H1")


# reg of one word as (word, integer numerator) pairs, over the denominator cached beside them
Row = tuple[tuple[Word, int], ...]


@functools.lru_cache(maxsize=None)
def _star_word(w: Word) -> tuple[int, Row]:
    """(n!, numerators over n! of reg_*(w)), n being w's trailing-e1 count."""
    n = w.trailing_e1_count()
    if n == 0:
        return 1, ((w, 1),)
    below = math.factorial(n - 1)
    acc: dict[Word, int] = {}
    for v, mult in _harmonic_parts(w.drop_last(), Word(1, 1)):
        if v == w:  # multiplicity n, the left-hand side of the recursion
            continue
        den, row = _star_word(v)
        scale = -mult * (below // den)
        for y, k in row:
            acc[y] = acc.get(y, 0) + scale * k
    return n * below, tuple((y, k) for y, k in acc.items() if k)


@functools.lru_cache(maxsize=None)
def _shuffle_word(w: Word) -> tuple[int, Row]:
    """(n!, numerators over n! of reg_sh(w)), as for :func:`_star_word`."""
    n = w.trailing_e1_count()
    if n == 0:
        return 1, ((w, 1),)
    row: Row = ()
    if n < w.length:
        scale = math.factorial(n) * (-1) ** n
        e1_power = Word((1 << n) - 1, n)
        row = tuple((y.append(0), scale * k) for y, k in _shuffle_words(w.drop_last(n + 1), e1_power))
    return math.factorial(n), row


def _sum_rows(x: LinComb, word: Callable[[Word], tuple[int, Row]], size: int | None = None) -> list[LinComb]:
    """The coefficients of T^0..T^(size-1) of x, or all of them when size is None.

    The T^j coefficient of w = u.e1^n is reg(u.e1^(n-j)) / j!, so over n! its
    numerators are C(n, j) times those of ``word(w.drop_last(j))`` over (n-j)!.
    """
    terms = [(w, w.trailing_e1_count(), c) for w, c in x.items()]
    den = math.lcm(1, *(c.denominator * math.factorial(n) for _, n, c in terms))
    if size is None:
        size = max((n + 1 for _, n, _ in terms), default=1)
    acc: list[dict[Word, int]] = [{} for _ in range(size)]
    for w, n, c in terms:
        scale = c.numerator * (den // (c.denominator * math.factorial(n)))
        for j, out in enumerate(acc[: n + 1]):
            scale_j = scale * math.comb(n, j)
            for y, k in word(w.drop_last(j))[1]:
                out[y] = out.get(y, 0) + scale_j * k
    return [LinComb._of_terms({y: Fraction(k, den) for y, k in out.items() if k}) for out in acc]


def star_decompose(x: LinComb) -> RegPolynomial:
    """Represent an H1 element as an H0-coefficient polynomial in T, where T
    stands for e1 and polynomial structure follows the harmonic product."""
    _require_h1(x, "star_decompose")
    return RegPolynomial(tuple(_sum_rows(x, _star_word)))


def shuffle_decompose(x: LinComb) -> RegPolynomial:
    """Same decomposition with the shuffle product in place of the harmonic one."""
    _require_h1(x, "shuffle_decompose")
    return RegPolynomial(tuple(_sum_rows(x, _shuffle_word)))


def reg_star(x: LinComb) -> LinComb:
    """Constant coefficient of the harmonic decomposition (T set to 0)."""
    _require_h1(x, "reg_star")
    return _sum_rows(x, _star_word, 1)[0]


def reg_shuffle(x: LinComb) -> LinComb:
    """Constant coefficient of the shuffle decomposition (T set to 0)."""
    _require_h1(x, "reg_shuffle")
    return _sum_rows(x, _shuffle_word, 1)[0]


def z_star_polynomial(k: Index) -> RegPolynomial:
    return star_decompose(LinComb.of_index(k))


def z_shuffle_polynomial(k: Index) -> RegPolynomial:
    return shuffle_decompose(LinComb.of_index(k))


def _shuffle_e1(x: LinComb) -> LinComb:
    """x sh e1: e1 put before each letter of each word of x and at its end, one term per place.

    Unlike ``shuffle``, it fills no ``_shuffle_words`` table: each accumulator
    of :func:`reconstruct` is a new combination, whose tables would serve no
    later product."""
    acc: dict[Word, Fraction] = {}
    for w, c in x.items():
        for i in range(w.length + 1):  # i: the letters after the new e1
            low = w.bits & ((1 << i) - 1)
            y = Word(((w.bits - low) << 1) | (1 << i) | low, w.length + 1)
            acc[y] = acc.get(y, 0) + c
    return LinComb._of_terms({y: c for y, c in acc.items() if c})


def reconstruct(p: RegPolynomial, product: str = "harmonic") -> LinComb:
    """Substitute T back to e1 using the named product; inverse of decompose.

    By Horner's rule, (..(c_d e1 + c_(d-1)) e1 + ..) e1 + c_0, each e1 taken by
    the product, which is commutative and associative."""
    if product == "harmonic":
        def times_e1(y: LinComb) -> LinComb:
            return harmonic(y, _E1)
    elif product == "shuffle":
        times_e1 = _shuffle_e1
    else:
        raise ValueError(f"unknown product {product!r}")
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = times_e1(acc) + c
    return acc
