"""Exact rational evaluation of truncated nested sums.

Four families share one dynamic program over a chain of constrained summation
variables n_1, ..., n_k in (0, N): per position the relation to the previous
variable is strict or non-strict, and the summand factor is
1 / ((N - n)^a * n^b).  Prefix sums give O(k * N) rational operations instead
of the naive O(N^k) enumeration; the naive enumeration is kept as the
independent brute-force oracle, capped for safety.

Everything in this module is exact ``fractions.Fraction`` arithmetic.
Floating twins for large N live in :mod:`mzvkit.numeric`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

from .algebra import Index, LinComb, index_of_word, jset
from .errors import CapExceededError, DomainError

Rational = Fraction

DEFAULT_MAX_N = 40
DEFAULT_MAX_WEIGHT = 6


@dataclass(frozen=True)
class RArgs:
    """Exponent pairs (a_i, b_i) of the boundary sums R_<N(a; b)."""

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", tuple(int(v) for v in self.a))
        object.__setattr__(self, "b", tuple(int(v) for v in self.b))
        if len(self.a) != len(self.b) or not self.a:
            raise DomainError("exponent sequences must be non-empty and of equal length")
        if any(v < 0 for v in self.a + self.b):
            raise DomainError("exponents must be non-negative")
        if self.a[0] < 1:
            raise DomainError("the first (N-n) exponent must be at least 1")
        if any(x + y < 1 for x, y in zip(self.a, self.b)):
            raise DomainError("each position needs a_i + b_i >= 1")

    @classmethod
    def parse(cls, text: str) -> "RArgs":
        """Parse "a1,...,ak;b1,...,bk", e.g. "2,1;0,0"."""
        try:
            a_text, b_text = text.split(";")
            a = tuple(int(v) for v in a_text.split(","))
            b = tuple(int(v) for v in b_text.split(","))
        except ValueError as exc:
            raise DomainError(f"R-args syntax is 'a1,..;b1,..', got {text!r}") from exc
        return cls(a, b)

    @property
    def depth(self) -> int:
        return len(self.a)

    def __str__(self) -> str:
        return ",".join(map(str, self.a)) + ";" + ",".join(map(str, self.b))


@dataclass(frozen=True)
class Step:
    """One chain position: relation to the previous variable plus weight exponents."""

    strict: bool
    a: int  # exponent on (N - n)
    b: int  # exponent on n


@dataclass(frozen=True)
class ConstraintChain:
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if self.steps and not self.steps[0].strict:
            raise DomainError("the first chain relation (against 0) must be strict")
        if any(s.a + s.b < 1 or s.a < 0 or s.b < 0 for s in self.steps):
            raise DomainError("each step weight needs non-negative exponents summing to >= 1")

    @classmethod
    def plain(cls, k: Index) -> "ConstraintChain":
        return cls(tuple(Step(True, 0, part) for part in k.parts))

    @classmethod
    def flat(cls, k: Index) -> "ConstraintChain":
        if not k.parts:
            return cls(())
        strict_at = jset(k)
        steps = []
        for i in range(1, k.weight + 1):
            if i in strict_at:
                steps.append(Step(True, 1, 0))  # weight 1/(N-n)
            else:
                steps.append(Step(False, 0, 1))  # weight 1/n
        return cls(tuple(steps))

    @classmethod
    def natural(cls, k: Index) -> "ConstraintChain":
        return cls(tuple(Step(True, s.a, s.b) for s in cls.flat(k).steps))

    @classmethod
    def from_rargs(cls, args: RArgs) -> "ConstraintChain":
        return cls(tuple(Step(True, x, y) for x, y in zip(args.a, args.b)))

    @property
    def length(self) -> int:
        return len(self.steps)


def _weight(step: Step, n: int, N: int) -> Fraction:
    return Fraction(1, (N - n) ** step.a * n ** step.b)


def evaluate_chain(chain: ConstraintChain, N: int) -> Fraction:
    """Exact chain sum over 0 < n_1 R n_2 R ... R n_k < N by prefix-sum DP."""
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not chain.steps:
        return Fraction(1)
    if N == 1:
        return Fraction(0)
    values: list[Fraction] = []
    for pos, step in enumerate(chain.steps):
        if pos == 0:
            values = [_weight(step, n, N) for n in range(1, N)]
            continue
        out: list[Fraction] = []
        running = Fraction(0)
        if step.strict:
            for i, n in enumerate(range(1, N)):
                out.append(_weight(step, n, N) * running)
                running += values[i]
        else:
            for i, n in enumerate(range(1, N)):
                running += values[i]
                out.append(_weight(step, n, N) * running)
        values = out
    return sum(values, Fraction(0))


def zeta_lt(k: Index, N: int) -> Fraction:
    """Exact truncated nested sum over 0 < n_1 < ... < n_r < N of prod n_i^-k_i."""
    return evaluate_chain(ConstraintChain.plain(k), N)


def zeta_flat(k: Index, N: int) -> Fraction:
    """Exact discretized-integral sum: mixed strict/non-strict chain with
    weights 1/(N-n) at e1 positions and 1/n at e0 positions."""
    return evaluate_chain(ConstraintChain.flat(k), N)


def zeta_natural(k: Index, N: int) -> Fraction:
    """Same weights as :func:`zeta_flat` over the fully strict chain."""
    return evaluate_chain(ConstraintChain.natural(k), N)


def r_value(args: RArgs, N: int) -> Fraction:
    """Exact boundary sum R_<N(a; b) over strict chains."""
    if N < 2:
        raise DomainError("R values require N >= 2")
    return evaluate_chain(ConstraintChain.from_rargs(args), N)


# the chain of each index variant, shared by the exact and the float evaluators
VARIANTS: dict[str, Callable[[Index], ConstraintChain]] = {
    "plain": ConstraintChain.plain,
    "flat": ConstraintChain.flat,
    "natural": ConstraintChain.natural,
}


def variant_chain(variant: str) -> Callable[[Index], ConstraintChain]:
    """The chain constructor of a variant name; unknown names raise DomainError."""
    try:
        return VARIANTS[variant]
    except KeyError:
        raise DomainError(f"variant must be one of {sorted(VARIANTS)}, got {variant!r}") from None


def zn_apply(x: LinComb, N: int, variant: str = "plain") -> Fraction:
    """Linear extension of the chosen evaluator to H1 combinations."""
    chain_of = variant_chain(variant)
    if not x.in_h1:
        raise DomainError("zn_apply requires support in H1")
    total = Fraction(0)
    for w, c in x.items():
        total += c * evaluate_chain(chain_of(index_of_word(w)), N)
    return total


BruteForceTarget = Union[Index, RArgs, ConstraintChain]


def _check_caps(N: int, weight: int, max_n: int, max_weight: int) -> None:
    if N > max_n or weight > max_weight:
        raise CapExceededError(
            f"brute force refused: N={N} (cap {max_n}), weight={weight} (cap {max_weight})"
        )


def _enumerate_chain(steps: Iterable[Step], N: int) -> Fraction:
    steps = tuple(steps)

    def rec(pos: int, prev: int, partial: Fraction) -> Fraction:
        if pos == len(steps):
            return partial
        step = steps[pos]
        lo = prev + 1 if step.strict else max(prev, 1)
        total = Fraction(0)
        for n in range(lo, N):
            total += rec(pos + 1, n, partial * _weight(step, n, N))
        return total

    if not steps:
        return Fraction(1)
    return rec(0, 0, Fraction(1))


def brute_force(
    target: BruteForceTarget,
    N: int,
    *,
    kind: str = "plain",
    max_n: int = DEFAULT_MAX_N,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> Fraction:
    """Direct tuple enumeration used as an independent oracle for the DPs.

    ``target`` may be an Index (with ``kind`` picking the plain, flat, or
    natural constraint set), an RArgs, or a raw ConstraintChain.  Enumeration
    caps are explicit; exceeding them raises instead of running silently.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if isinstance(target, ConstraintChain):
        _check_caps(N, target.length, max_n, max_weight)
        return _enumerate_chain(target.steps, N)
    if isinstance(target, RArgs):
        if N < 2:
            raise DomainError("R values require N >= 2")
        _check_caps(N, target.depth, max_n, max_weight)
        total = Fraction(0)
        for combo in itertools.combinations(range(1, N), target.depth):
            term = Fraction(1)
            for n, a, b in zip(combo, target.a, target.b):
                term *= Fraction(1, (N - n) ** a * n ** b)
            total += term
        return total
    if isinstance(target, Index):
        _check_caps(N, target.weight, max_n, max_weight)
        if not target.parts:
            return Fraction(1)
        if kind == "plain":
            total = Fraction(0)
            for combo in itertools.combinations(range(1, N), target.depth):
                term = Fraction(1)
                for n, part in zip(combo, target.parts):
                    term *= Fraction(1, n ** part)
                total += term
            return total
        if kind in ("flat", "natural"):
            strict_at = jset(target)
            letters = [1 if i in strict_at else 0 for i in range(1, target.weight + 1)]

            def weight_at(i: int, n: int) -> Fraction:
                return Fraction(1, N - n) if letters[i] else Fraction(1, n)

            def rec(i: int, prev: int, partial: Fraction) -> Fraction:
                if i == len(letters):
                    return partial
                strict = (i + 1 in strict_at) or kind == "natural"
                lo = prev + 1 if strict else max(prev, 1)
                total = Fraction(0)
                for n in range(lo, N):
                    total += rec(i + 1, n, partial * weight_at(i, n))
                return total

            return rec(0, 0, Fraction(1))
        raise DomainError(f"unknown brute-force kind {kind!r}")
    raise DomainError(f"unsupported brute-force target {target!r}")


def boundary_overlap_sum(
    k: Index,
    N: int,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> Fraction:
    """Brute-force sum over the mixed-chain tuples that are not strictly
    increasing (the flat-minus-natural boundary)."""
    if not k.parts:
        return Fraction(0)
    _check_caps(N, k.weight, max_n, max_weight)
    strict_at = jset(k)
    letters = [1 if i in strict_at else 0 for i in range(1, k.weight + 1)]
    total = Fraction(0)

    def rec(i: int, prev: int, partial: Fraction, has_tie: bool) -> None:
        nonlocal total
        if i == len(letters):
            if has_tie:
                total += partial
            return
        strict = i + 1 in strict_at
        lo = prev + 1 if strict else max(prev, 1)
        for n in range(lo, N):
            w = Fraction(1, N - n) if letters[i] else Fraction(1, n)
            rec(i + 1, n, partial * w, has_tie or (i > 0 and n == prev))

    rec(0, 0, Fraction(1), False)
    return total


def diagonal_overlap_sum(
    k: Index,
    l: Index,
    N: int,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_weight: int = DEFAULT_MAX_WEIGHT,
) -> Fraction:
    """Brute-force sum over pairs of strict chains sharing at least one value.

    These are the diagonal terms that separate the product of two strict-chain
    sums from the strict-chain sum of the shuffled word.
    """
    if not k.parts or not l.parts:
        return Fraction(0)
    _check_caps(N, k.weight + l.weight, max_n, max_weight)

    def chain_terms(idx: Index) -> list[tuple[tuple[int, ...], Fraction]]:
        strict_at = jset(idx)
        letters = [1 if i in strict_at else 0 for i in range(1, idx.weight + 1)]
        out = []
        for combo in itertools.combinations(range(1, N), idx.weight):
            term = Fraction(1)
            for i, n in enumerate(combo):
                term *= Fraction(1, N - n) if letters[i] else Fraction(1, n)
            out.append((combo, term))
        return out

    total = Fraction(0)
    left = chain_terms(k)
    right = chain_terms(l)
    for combo_k, term_k in left:
        set_k = set(combo_k)
        for combo_l, term_l in right:
            if set_k.intersection(combo_l):
                total += term_k * term_l
    return total
