"""Words over {e0, e1}, integer indices, and the harmonic / shuffle products.

A word is the tuple (length, bits), its letters packed MSB-first into bits,
so tuple order is the canonical order: by length, then lexicographic.  The
rational span of words starting with e1 (plus the empty word) is the algebra
H1; words that additionally end with e0 span the subalgebra H0.  Each
product is a right recursion on a table of word pairs: the harmonic product
(Hoffman's quasi-shuffle on the letters z_k = e1 e0^(k-1)) on the last part
of each word, the shuffle on the last letter.  One bilinear extension takes
both tables to linear combinations with exact rational coefficients, adding
integer numerators over one common denominator.

All values here are immutable and all operations are pure; the memoization
caches behind the two products are ordinary ``lru_cache`` stores, which are
safe under CPython's GIL (worst case a value is recomputed, never corrupted).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

from .errors import DomainError

E0 = 0
E1 = 1

Scalar = Union[int, Fraction]


class Word(tuple):
    """The tuple ``(length, bits)`` of a word over {e0, e1}, built as ``Word(bits, length)``.

    ``bits`` packs the letters MSB-first (e1 = 1, e0 = 0).  Tuple order is the
    canonical order, length then lexicographic; the empty word is the unit.
    """

    __slots__ = ()

    def __new__(cls, bits: int, length: int) -> "Word":
        if length < 0 or bits < 0 or bits >> length:
            raise ValueError(f"invalid packed word: bits={bits}, length={length}")
        return tuple.__new__(cls, (length, bits))

    def __getnewargs__(self) -> tuple[int, int]:
        return self.bits, self.length

    length = property(operator.itemgetter(0))
    bits = property(operator.itemgetter(1))

    @classmethod
    def from_letters(cls, letters: Iterable[int]) -> "Word":
        bits = 0
        n = 0
        for letter in letters:
            if letter not in (E0, E1):
                raise ValueError(f"letters must be 0 or 1, got {letter!r}")
            bits = (bits << 1) | letter
            n += 1
        return cls(bits, n)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse the text form: a string over {0, 1}; "" is the empty word."""
        if text and not set(text) <= {"0", "1"}:
            raise DomainError(f"word syntax is a string over {{0,1}}, got {text!r}")
        return cls(int(text, 2) if text else 0, len(text))

    @property
    def is_empty(self) -> bool:
        return self.length == 0

    @property
    def first(self) -> int:
        if self.is_empty:
            raise ValueError("empty word has no letters")
        return (self.bits >> (self.length - 1)) & 1

    @property
    def last(self) -> int:
        if self.is_empty:
            raise ValueError("empty word has no letters")
        return self.bits & 1

    @property
    def in_h1(self) -> bool:
        return self.is_empty or self.first == E1

    @property
    def in_h0(self) -> bool:
        return self.is_empty or (self.first == E1 and self.last == E0)

    def letters(self) -> tuple[int, ...]:
        return tuple((self.bits >> (self.length - 1 - i)) & 1 for i in range(self.length))

    def append(self, letter: int) -> "Word":
        return Word((self.bits << 1) | letter, self.length + 1)

    def drop_last(self, n: int = 1) -> "Word":
        if n > self.length:
            raise ValueError("cannot drop more letters than the word has")
        return Word(self.bits >> n, self.length - n)

    def trailing_e1_count(self) -> int:
        bits, t = self.bits, 0
        while t < self.length and bits & 1:
            bits >>= 1
            t += 1
        return t

    def __str__(self) -> str:
        return format(self.bits, f"0{self.length}b") if self.length else ""

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


EMPTY_WORD = Word(0, 0)


@dataclass(frozen=True)
class Index:
    """A finite tuple of positive integers addressing a nested zeta-type sum."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        if any(p < 1 for p in self.parts):
            raise DomainError(f"index parts must be positive integers, got {self.parts}")

    @classmethod
    def parse(cls, text: str) -> "Index":
        """Parse the text form: comma-separated positive integers; "" is empty."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            parts = tuple(int(piece) for piece in text.split(","))
        except ValueError as exc:
            raise DomainError(f"index syntax is comma-separated integers, got {text!r}") from exc
        return cls(parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def depth(self) -> int:
        return len(self.parts)

    @property
    def admissible(self) -> bool:
        return not self.parts or self.parts[-1] >= 2

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Index(({','.join(str(p) for p in self.parts)}))"


def as_index(value: "Index | Iterable[int]") -> Index:
    """Coerce a raw tuple/list of parts to an :class:`Index`."""
    return value if isinstance(value, Index) else Index(tuple(value))


def word_of_index(k: Index) -> Word:
    """The word e1 e0^(k1-1) ... e1 e0^(kr-1) of an index."""
    bits = 0
    length = 0
    for part in k.parts:
        bits = (bits << part) | (1 << (part - 1))
        length += part
    return Word(bits, length)


def index_of_word(w: Word) -> Index:
    """Inverse of :func:`word_of_index` on H1 words."""
    if not w.in_h1:
        raise DomainError(f"word {w} starts with e0 and is not in H1")
    parts: list[int] = []
    for letter in w.letters():
        if letter == E1:
            parts.append(1)
        else:
            parts[-1] += 1
    return Index(tuple(parts))


class LinComb:
    """A finite rational-linear combination of words, zero terms dropped."""

    # _items: the canonical order of _terms, sorted on first use
    __slots__ = ("_terms", "_items")

    def __init__(self, terms: Mapping[Word, Scalar] | Iterable[tuple[Word, Scalar]] = ()):
        data: dict[Word, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for word, coeff in items:
            data[word] = data.get(word, 0) + Fraction(coeff)
        self._terms = {w: c for w, c in data.items() if c}
        self._items = None

    @classmethod
    def _of_terms(cls, terms: dict[Word, Fraction]) -> "LinComb":
        """Wrap ``terms`` (non-zero ``Fraction`` values) without copying or checking it."""
        out = cls.__new__(cls)
        out._terms = terms
        out._items = None
        return out

    @classmethod
    def zero(cls) -> "LinComb":
        return cls()

    @classmethod
    def unit(cls) -> "LinComb":
        return cls(((EMPTY_WORD, Fraction(1)),))

    @classmethod
    def of_word(cls, w: Word, coeff: Scalar = 1) -> "LinComb":
        return cls(((w, Fraction(coeff)),))

    @classmethod
    def of_index(cls, k: Index, coeff: Scalar = 1) -> "LinComb":
        return cls.of_word(word_of_index(k), coeff)

    def items(self) -> tuple[tuple[Word, Fraction], ...]:
        """Terms in canonical (length, packed-bits) order."""
        if self._items is None:
            self._items = tuple(sorted(self._terms.items()))
        return self._items

    def support(self) -> set[Word]:
        return set(self._terms)

    def coefficient(self, w: Word) -> Fraction:
        return self._terms.get(w, Fraction(0))

    @property
    def in_h1(self) -> bool:
        return all(w.in_h1 for w in self._terms)

    @property
    def in_h0(self) -> bool:
        return all(w.in_h0 for w in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        if not isinstance(other, LinComb):
            return NotImplemented
        merged = dict(self._terms)
        for word, coeff in other._terms.items():
            merged[word] = merged.get(word, 0) + coeff
        return LinComb._of_terms({w: c for w, c in merged.items() if c})

    def __neg__(self) -> "LinComb":
        return LinComb._of_terms({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "LinComb") -> "LinComb":
        return self + (-other)

    def __mul__(self, scalar: Scalar) -> "LinComb":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        scalar = Fraction(scalar)
        if not scalar:
            return LinComb.zero()
        return LinComb._of_terms({w: c * scalar for w, c in self._terms.items()})

    __rmul__ = __mul__

    def serialize(self) -> list[tuple[str, str]]:
        """Canonical list of ("p/q", word-string) pairs."""
        return [(f"{c.numerator}/{c.denominator}", str(w)) for w, c in self.items()]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for w, c in self.items():
            name = str(w) if w.length else "1"
            pieces.append(f"({c})*{name}")
        return " + ".join(pieces)

    def __repr__(self) -> str:
        return f"LinComb({str(self)})"


WordTable = tuple[tuple[Word, int], ...]


@functools.lru_cache(maxsize=None)
def _harmonic_parts(a: Word, b: Word) -> WordTable:
    # right recursion on the last parts of two H1 words: a word ends in
    # z_k = e1 e0^(k-1) when its lowest set bit is bit k - 1
    if a.is_empty:
        return ((b, 1),)
    if b.is_empty:
        return ((a, 1),)
    ka, kb = (a.bits & -a.bits).bit_length(), (b.bits & -b.bits).bit_length()
    rest_a, rest_b = a.drop_last(ka), b.drop_last(kb)
    acc: dict[Word, int] = {}
    for u, v, k in ((rest_a, b, ka), (a, rest_b, kb), (rest_a, rest_b, ka + kb)):
        for prefix, mult in _harmonic_parts(u, v):
            key = Word((prefix.bits << k) | (1 << (k - 1)), prefix.length + k)
            acc[key] = acc.get(key, 0) + mult
    return tuple(sorted(acc.items()))


@functools.lru_cache(maxsize=None)
def _shuffle_words(a: Word, b: Word) -> WordTable:
    if a.is_empty:
        return ((b, 1),)
    if b.is_empty:
        return ((a, 1),)
    acc: dict[Word, int] = {}
    for u, v, letter in ((a.drop_last(), b, a.last), (a, b.drop_last(), b.last)):
        for prefix, mult in _shuffle_words(u, v):
            key = prefix.append(letter)
            acc[key] = acc.get(key, 0) + mult
    return tuple(sorted(acc.items()))


def _numerators(x: LinComb) -> tuple[int, list[tuple[Word, int]]]:
    """The lcm d of the coefficient denominators of ``x``, and its terms in canonical order with numerators over d."""
    items = x.items()
    d = math.lcm(*(c.denominator for _, c in items))
    return d, [(w, c.numerator * (d // c.denominator)) for w, c in items]


def _bilinear(x: LinComb, y: LinComb, table: Callable[[Word, Word], WordTable]) -> LinComb:
    """The bilinear extension of a product whose word pairs multiply by ``table``.

    The table's multiplicities are integers, so the products add integer
    numerators over one denominator, dx * dy, where dx and dy are the lcm
    of the coefficient denominators of ``x`` and of ``y``.  Each output
    word forms one ``Fraction``, at the end.
    """
    dx, xs = _numerators(x)
    dy, ys = _numerators(y)
    acc: dict[Word, int] = {}
    for wx, nx in xs:
        for wy, ny in ys:
            scale = nx * ny
            for word, mult in table(wx, wy):
                acc[word] = acc.get(word, 0) + scale * mult
    den = dx * dy
    return LinComb._of_terms({w: Fraction(c, den) for w, c in acc.items() if c})


def harmonic(x: LinComb, y: LinComb) -> LinComb:
    """The harmonic (quasi-shuffle) product, defined on H1."""
    if not (x.in_h1 and y.in_h1):
        raise DomainError("harmonic product operands must be supported in H1")
    return _bilinear(x, y, _harmonic_parts)


def shuffle(x: LinComb, y: LinComb) -> LinComb:
    """The shuffle product, defined on all words."""
    return _bilinear(x, y, _shuffle_words)


def indices_of_weight(weight: int) -> list[Index]:
    """All compositions of ``weight`` (the empty index for weight 0)."""
    if weight < 0:
        raise ValueError("weight must be non-negative")
    if weight == 0:
        return [Index(())]
    out = []
    # compositions of w correspond to subsets of the w-1 gaps
    for mask in range(1 << (weight - 1)):
        parts = []
        run = 1
        for gap in range(weight - 1):
            if mask >> gap & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(Index(tuple(parts)))
    return sorted(out, key=lambda k: k.parts)


def indices_up_to_weight(max_weight: int, *, include_empty: bool = False) -> list[Index]:
    lo = 0 if include_empty else 1
    out: list[Index] = []
    for w in range(lo, max_weight + 1):
        out.extend(indices_of_weight(w))
    return out


def admissible_indices_up_to(max_weight: int, *, include_empty: bool = False) -> list[Index]:
    return [k for k in indices_up_to_weight(max_weight, include_empty=include_empty) if k.admissible]
