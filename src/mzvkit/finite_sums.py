"""Exact rational evaluation of truncated nested sums.

Four families share one dynamic program over a chain of constrained summation
variables n_1, ..., n_k in (0, N): per position the relation to the previous
variable is strict or non-strict, and the summand factor is
1 / ((N - n)^a * n^b).  The flat and natural chains of an index are read off
the letters of its word, one step per letter.  Prefix sums give O(k * N)
operations instead of the naive O(N^k) enumeration.  :class:`ChainWalk` is
that DP, once, for a set of chains: :meth:`ChainWalk.walk` walks the prefix
trie of the chains missing from its table depth first, so each distinct
prefix costs one step, each trie node with children forms the running sums
of its row once for all of them, and only the rows of the current path are
held.  The walk remembers the sum of every chain it walks, in a table it is
given or in one of its own.  It is generic over its arithmetic;
:class:`IntegerRows` here and :class:`mzvkit.numeric.FloatRows` are the two.
:func:`evaluate_chain` reads one chain from the table of a walk it is given,
or walks it on its own.

:func:`walk_words` walks the chains of a word set missing from a table of
exact chain sums per N that lives across calls, so that a campaign walks each
distinct chain once per N; :func:`zn_apply` walks its own missing chains
likewise, then reads every word from the table.  Both read each word's chain
from :func:`word_chain`, which builds it once per (word, variant).  Only sums
and chains outlive a call, never rows: a row at N holds N - 1 numerators of
about 1.44 * w * N bits.

The diagonal terms of a product of two strict-chain sums come from a second
prefix-sum DP over the merge grid of their steps.  The naive enumeration of
chain tuples is kept as the independent brute-force oracle of both, capped
for safety.

Results are exact ``fractions.Fraction`` values.  Both DPs run on integers
over one common denominator: with L = lcm(1..N-1), every summand factor
divides L^(a+b), so each step multiplies by the integer L^(a+b) / ((N-n)^a n^b)
and a DP value after steps of total exponent w is the numerator over L^w.
Each chain's sum becomes a Fraction once, at the end, which saves a gcd per
operation.  :func:`zn_apply` adds the terms of a combination the same way:
integer numerators over one common denominator, which each term's
denominator is checked against, and one Fraction at the end.  The
brute-force oracle stays on Fractions, independent of this scaling.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from .algebra import Index, LinComb, Word, index_of_word, word_of_index
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


class Step(NamedTuple):
    """One chain position: relation to the previous variable plus weight exponents.

    A tuple, so that the chain walk hashes and sorts chains at C speed.
    """

    strict: bool
    a: int  # exponent on (N - n)
    b: int  # exponent on n


# the step of each letter (e0, e1) of an index's word in its flat and natural chains
_FLAT_STEPS = (Step(False, 0, 1), Step(True, 1, 0))  # weights 1/n and 1/(N - n)
_NATURAL_STEPS = (Step(True, 0, 1), Step(True, 1, 0))


@functools.lru_cache(maxsize=None)
def _plain_step(part: int) -> Step:
    """The step of a part in a plain chain, made once per part, so that the chains :func:`word_chain` keeps share it."""
    return Step(True, 0, part)


@dataclass(frozen=True)
class ConstraintChain:
    """The variables 0 < n_1 R n_2 R ... R n_k < N of a nested sum, one :class:`Step` each.

    The plain chain of k is strict with weight 1/n^k_i at part i.  The flat
    and natural chains take one step per letter of k's word: J(k), the set of
    its e1 positions, gets strict steps weighted 1/(N - n), and the e0
    positions steps weighted 1/n, non-strict in the flat chain and strict in
    the natural one.
    """

    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if self.steps and not self.steps[0].strict:
            raise DomainError("the first chain relation (against 0) must be strict")
        if any(s.a + s.b < 1 or s.a < 0 or s.b < 0 for s in self.steps):
            raise DomainError("each step weight needs non-negative exponents summing to >= 1")

    @classmethod
    def plain(cls, k: Index) -> "ConstraintChain":
        return cls(tuple(map(_plain_step, k.parts)))

    @classmethod
    def flat(cls, k: Index) -> "ConstraintChain":
        return cls(tuple(_FLAT_STEPS[letter] for letter in word_of_index(k).letters()))

    @classmethod
    def natural(cls, k: Index) -> "ConstraintChain":
        return cls(tuple(_NATURAL_STEPS[letter] for letter in word_of_index(k).letters()))

    @classmethod
    def from_rargs(cls, args: RArgs) -> "ConstraintChain":
        return cls(tuple(Step(True, x, y) for x, y in zip(args.a, args.b)))

    @property
    def length(self) -> int:
        return len(self.steps)


def _weight(step: Step, n: int, N: int) -> Fraction:
    return Fraction(1, (N - n) ** step.a * n ** step.b)


@functools.lru_cache(maxsize=64)
def _lcm_below(N: int) -> int:
    """lcm(1..N-1), kept for the few N a campaign evaluates its many small sums at."""
    return math.lcm(*range(1, N))


class IntegerRows:
    """The exact arithmetic of the chain DP at N: integer numerators over powers of lcm(1..N-1).

    Row entry n - 1 belongs to the summation value n.  The weight row of an
    exponent pair (a, b) holds lcm^(a+b) / ((N - n)^a * n^b), exact because
    every n < N divides lcm, so a row after steps of total exponent w is the
    numerator of its sums over lcm^w.  Rows are lists, a new one per call, so
    the walk ``level`` a call is given does not matter here.
    """

    one = Fraction(1)

    def __init__(self, N: int) -> None:
        self.N = N
        self.lcm = _lcm_below(N)

    def weights(self, a: int, b: int) -> list[int]:
        N, scale = self.N, self.lcm ** (a + b)
        return [scale // ((N - n) ** a * n ** b) for n in range(1, N)]

    def cumulate(self, values: list[int], level: int) -> list[int]:
        """The running sums of a row: entry n - 1 sums the values up to n."""
        return list(itertools.accumulate(values))

    def weigh(self, weights: list[int], sums: list[int], strict: bool, level: int) -> list[int]:
        """Each weight times the running sum below (strict) or up to (non-strict) its n."""
        return list(map(operator.mul, weights, itertools.chain((0,), sums) if strict else sums))

    def step(self, weights: list[int], values: list[int], strict: bool, level: int) -> list[int]:
        """:meth:`weigh` on the running sums of ``values``, formed on the fly; ``values`` stay as they are."""
        below = itertools.accumulate(values, initial=0) if strict else itertools.accumulate(values)
        return list(map(operator.mul, weights, below))

    def total(self, values: list[int], steps: tuple[Step, ...]) -> Fraction:
        """The chain's sum from its last row."""
        return Fraction(sum(values), self.lcm ** sum(a + b for _, a, b in steps))


class ChainWalk:
    """The prefix-sum DP of a set of chains, walked depth first along their prefix trie.

    :meth:`walk` forms one row per distinct prefix, each from its parent's
    row and its own step, and reads each chain's total from its row before
    the row serves a child.  A trie node with one child passes its row to
    ``rows.step``, which sums on the fly into the child's row; a node with
    more forms its running sums once with ``rows.cumulate``, and each child
    takes ``rows.weigh`` on them.  Siblings are walked in sorted order, so
    the totals are read in the sorted order of the chains.  The walk is
    iterative, with one frame per node that has children left, so a chain
    may be deeper than Python's recursion limit.  The first step's row is a
    weight row, which other steps share, so its running sums take an array
    of their own, dropped with the frame once its last child is formed.

    ``rows`` is the arithmetic, with the interface of :class:`IntegerRows`;
    :class:`mzvkit.numeric.FloatRows` is the float64 one, which writes the
    rows of each level, a step's index in its chain, into one buffer.  Each
    weight row is built once per exponent pair.

    The walk remembers the sum of every chain it walks in ``sums``, a dict
    keyed by steps, and reads a chain found there instead of walking it.
    ``sums`` may be a table that outlives the walk, as :func:`walk_words`
    passes one; the rows never do.
    """

    def __init__(self, rows, sums: dict | None = None) -> None:
        self.rows = rows
        self.sums = {} if sums is None else sums
        self._weights: dict = {}  # weight rows by exponent pair

    def value(self, steps: tuple[Step, ...]):
        """The sum of the chain with these steps: read from ``sums``, or walked on its own."""
        total = self.sums.get(steps)
        if total is None:
            self.walk((steps,))
            total = self.sums[steps]
        return total

    def walk(self, chains: Iterable[tuple[Step, ...]]) -> None:
        """Walk the chains with these steps that are missing from ``sums``, depth first along their prefix trie."""
        rows = self.rows
        trie: dict = {}  # step -> [the chain that ends there, or None; the subtrie below it]
        for steps in chains:
            if steps in self.sums:
                continue
            if not steps:
                self.sums[steps] = rows.one
                continue
            node = trie
            for step in steps:
                entry = node.setdefault(step, [None, {}])
                node = entry[1]
            entry[0] = steps
        # a frame: the level of a node's children, those left to walk (the next one last), their source and its form
        stack = [(0, sorted(trie.items(), reverse=True), None, None)] if trie else []
        while stack:
            level, children, source, form = stack[-1]
            (strict, a, b), (chain, below) = children.pop()
            if not children:
                stack.pop()
            weights = self._weights.get((a, b))
            if weights is None:
                weights = self._weights[a, b] = rows.weights(a, b)
            row = form(weights, source, strict, level) if level else weights
            del source  # after its last child, a first step's own running sums die here
            if chain is not None:
                self.sums[chain] = rows.total(row, chain)
            if len(below) == 1:
                stack.append((level + 1, list(below.items()), row, rows.step))
            elif below:
                stack.append((level + 1, sorted(below.items(), reverse=True), rows.cumulate(row, level), rows.weigh))


def evaluate_chain(chain: ConstraintChain, N: int, walk: ChainWalk | None = None) -> Fraction:
    """Exact chain sum over 0 < n_1 R n_2 R ... R n_k < N by prefix-sum DP,
    on integer numerators over powers of lcm(1..N-1).

    ``walk``, a :class:`ChainWalk` over ``IntegerRows(N)``, reads a chain
    already in its table and walks any other on its own; :func:`zn_apply`
    reads all its words through one, after walking them together.  A walk at
    another N raises DomainError.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if walk is None:
        walk = ChainWalk(IntegerRows(N))
    elif walk.rows.N != N:
        raise DomainError(f"the walk runs at N={walk.rows.N}, not at N={N}")
    return walk.value(chain.steps)


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


@functools.lru_cache(maxsize=None)
def word_chain(w: Word, variant: str) -> ConstraintChain:
    """The chain of the index of an H1 word in a variant, built once per (word, variant) and kept.

    The exact and float walks at every N read their words' chains here.
    """
    return variant_chain(variant)(index_of_word(w))


@functools.lru_cache(maxsize=None)
def _chain_sums(N: int) -> dict[tuple[Step, ...], Fraction]:
    """The exact sums of the chains walked so far at N, by steps; :func:`zn_apply` and :func:`walk_words` fill it."""
    return {}


def walk_words(words: Iterable[Word], N: int, variant: str = "plain") -> None:
    """Walk the chains of ``words`` missing from the exact table at N into it, in one walk.

    :func:`zn_apply` at N then reads these words from the table.  Every word
    must lie in H1; an unknown variant raises DomainError.
    """
    variant_chain(variant)  # an unknown variant raises, also for no words
    if N < 1:
        raise DomainError("N must be a positive integer")
    ChainWalk(IntegerRows(N), _chain_sums(N)).walk(word_chain(w, variant).steps for w in words)


def zn_apply(x: LinComb, N: int, variant: str = "plain") -> Fraction:
    """Linear extension of the chosen evaluator to H1 combinations.

    The chains missing from the exact table at N, which outlives the call,
    take one :meth:`ChainWalk.walk`; then every word is read from the table
    through :func:`evaluate_chain`.  The terms add as integers over one
    common denominator D and form one ``Fraction``, at the end.  D starts
    as the lcm of the coefficient denominators times lcm(1..N-1)^w, w the
    largest weight of a word of ``x``: the chain of a word of weight w has
    total exponent w in every variant, so the walk's sum has a denominator
    dividing lcm(1..N-1)^w.  Each term's denominator is checked against D
    all the same, and D grows by the missing factor of one that does not
    divide it, so that a sum the table got from elsewhere still adds exactly.
    """
    variant_chain(variant)  # an unknown variant raises, also for no words
    if N < 1:
        raise DomainError("N must be a positive integer")
    terms = [(word_chain(w, variant), c) for w, c in x.items()]
    walk = ChainWalk(IntegerRows(N), _chain_sums(N))
    walk.walk(chain.steps for chain, _ in terms)
    weight = max((w.length for w, _ in x.items()), default=0)
    den = math.lcm(*(c.denominator for _, c in terms)) * walk.rows.lcm ** weight
    acc = 0
    for chain, c in terms:
        value = evaluate_chain(chain, N, walk)
        term_den = c.denominator * value.denominator
        scale, rest = divmod(den, term_den)
        if rest:
            grow = term_den // math.gcd(den, term_den)
            den, acc, scale = den * grow, acc * grow, den * grow // term_den
        acc += c.numerator * value.numerator * scale
    return Fraction(acc, den)


def diagonal_terms(k: Index, l: Index, N: int) -> Fraction:
    """Exact sum of the diagonal terms of the natural-chain product at N.

    The product of the natural-chain sums of ``k`` and ``l`` is the sum over
    the quasi-shuffles of their step sequences: a merge path through the grid
    of the two sequences takes a step of either one or ties the next step of
    both into one step with added exponents.  The diagonal terms are the paths
    with at least one tie.  The DP runs over the states (i, j, tied), each
    holding its merged chains summed by their last value, so it takes
    O(wt(k) * wt(l) * N) integer operations at any weight.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    left = ConstraintChain.natural(k).steps
    right = ConstraintChain.natural(l).steps
    # every state (i, j, tied) has the weight of left[:i] plus right[:j], so its
    # values share the denominator lcm^weight; the grid holds the numerators
    rows = IntegerRows(N)
    weights_of = functools.cache(rows.weights)
    # ending[n]: merged chains over left[:i], right[:j] whose last value is n; the empty chain ends at 0
    grid = {(0, 0, False): [1] + [0] * (N - 1)}
    for i in range(len(left) + 1):
        for j in range(len(right) + 1):
            for tied in (False, True):
                ending = grid.get((i, j, tied))
                if ending is None:
                    continue
                moves = []
                if i < len(left):
                    moves.append(((i + 1, j, tied), left[i]))
                if j < len(right):
                    moves.append(((i, j + 1, tied), right[j]))
                if i < len(left) and j < len(right):
                    merged = Step(True, left[i].a + right[j].a, left[i].b + right[j].b)
                    moves.append(((i + 1, j + 1, True), merged))
                below = list(itertools.accumulate(ending))  # below[n - 1]: chains ending before n
                for state, step in moves:
                    out = grid.setdefault(state, [0] * N)
                    for n, weight in enumerate(weights_of(step.a, step.b), 1):
                        out[n] += weight * below[n - 1]
    final = grid.get((len(left), len(right), True))
    return Fraction(sum(final), rows.lcm ** (k.weight + l.weight)) if final else Fraction(0)


BruteForceTarget = Union[Index, RArgs, ConstraintChain]


def _check_caps(N: int, weight: int, max_n: int, max_weight: int) -> None:
    if N > max_n or weight > max_weight:
        raise CapExceededError(
            f"brute force refused: N={N} (cap {max_n}), weight={weight} (cap {max_weight})"
        )


def _chain_terms(chain: ConstraintChain, N: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Every tuple (n_1, ..., n_k) the chain admits below N, with its summand."""
    steps = chain.steps

    def rec(pos: int, prev: int, values: tuple[int, ...], term: Fraction):
        if pos == len(steps):
            yield values, term
            return
        step = steps[pos]
        lo = prev + 1 if step.strict else max(prev, 1)
        for n in range(lo, N):
            yield from rec(pos + 1, n, values + (n,), term * _weight(step, n, N))

    return rec(0, 0, (), Fraction(1))


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
        chain = target
    elif isinstance(target, RArgs):
        if N < 2:
            raise DomainError("R values require N >= 2")
        _check_caps(N, target.depth, max_n, max_weight)
        chain = ConstraintChain.from_rargs(target)
    elif isinstance(target, Index):
        _check_caps(N, target.weight, max_n, max_weight)
        if kind == "plain":
            # itertools enumeration, independent of the chain machinery
            total = Fraction(0)
            for combo in itertools.combinations(range(1, N), target.depth):
                term = Fraction(1)
                for n, part in zip(combo, target.parts):
                    term *= Fraction(1, n ** part)
                total += term
            return total
        chain = variant_chain(kind)(target)
    else:
        raise DomainError(f"unsupported brute-force target {target!r}")
    return sum((term for _, term in _chain_terms(chain, N)), Fraction(0))


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
    total = Fraction(0)
    for values, term in _chain_terms(ConstraintChain.flat(k), N):
        if len(set(values)) < len(values):  # a non-decreasing tuple with a repeat
            total += term
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
    sums from the strict-chain sum of the shuffled word; the capped oracle of
    :func:`diagonal_terms`.
    """
    if not k.parts or not l.parts:
        return Fraction(0)
    _check_caps(N, k.weight + l.weight, max_n, max_weight)
    right = list(_chain_terms(ConstraintChain.natural(l), N))
    total = Fraction(0)
    for values_k, term_k in _chain_terms(ConstraintChain.natural(k), N):
        shared = set(values_k)
        for values_l, term_l in right:
            if shared.intersection(values_l):
                total += term_k * term_l
    return total
