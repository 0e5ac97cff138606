"""The ``toolkit-calls`` workload: a seeded stream of one-shot library calls.

Each call mirrors a CLI subcommand (``product``, ``sum``, ``regularize``,
``mzv``) or the work of ``scripts/residual_decay.py`` (``decay``).  Each kind
gets the same number of calls: the README shows every subcommand with one or
two example calls, and there is no record of what users call, so the mix is
a choice rather than measured traffic.  The seed draws the operands inside
each kind's strata, so that streams of different seeds cost about the same.
Every result is checked afterwards by a relation that does not reuse the code
path that produced it.

Calls go through module attributes at call time (``mz.harmonic``, not a name
bound at import), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import math
import random

import mzvkit as mz
from mzvkit import numeric

# calls per stream, by kind: equal counts; 200 calls put p95 at ten calls from the top
MIX = {kind: 40 for kind in ("product", "sum", "regularize", "mzv", "decay")}
MZV_TOL = 1e-10
SUM_BRUTE_MAX_N = 40  # brute_force caps: N <= 40, weight <= 6
SUM_MAX_N = 300
# decay call i starts its doubling N schedule at DECAY_LO + i: no two calls'
# schedules share an N (the starts are less than a factor 2 apart), so no call
# reads another's cached float sums, as one run of scripts/residual_decay.py
# would not
DECAY_LO = 41
DECAY_PLAN = (  # (weight of w1, weight of w0, log2 of the largest N)
    (1, 2, 18),
    (2, 2, 17),
    (1, 3, 17),
    (2, 3, 16),
    (3, 2, 16),
    (1, 4, 18),
)
CLOSED_FORMS = ((2,), (1, 2), (3,), (2, 2), (2, 2, 2), (2, 2, 2, 2))
# dual pairs of mzv calls by weight, in proportion to the 6, 16 and 28 pairs there are
MZV_PAIRS = {6: 2, 7: 5, 8: 10}


def random_index(rng: random.Random, weight: int, depth: int, *, admissible: bool = False) -> mz.Index:
    """A uniformly drawn composition of ``weight`` into ``depth`` parts."""
    pool = [k for k in mz.indices_of_weight(weight) if k.depth == depth and (k.admissible or not admissible)]
    return rng.choice(pool)


def shapes(weights: range, *, admissible: bool = False) -> list[tuple[int, int]]:
    """Every (weight, depth) with ``weight`` in ``weights`` that has a composition."""
    return [(w, d) for w in weights for d in range(1, w + (not admissible))]


def grid(count: int, *axes: list) -> list[tuple]:
    """``count`` cells of the grid spanned by ``axes``, spread evenly over it.

    The cells do not depend on the seed, so the seed only draws operands inside
    each cell: streams of different seeds then cost about the same.
    """
    cells = list(itertools.product(*axes))
    step = max(1, len(cells) // count)
    while math.gcd(step, len(cells)) != 1:
        step += 1
    return [cells[i * step % len(cells)] for i in range(count)]


def dual(k: mz.Index) -> mz.Index:
    """Dual index: reverse the word and swap e0 and e1."""
    letters = mz.word_of_index(k).letters()
    return mz.index_of_word(mz.Word.from_letters(1 - x for x in reversed(letters)))


def _mzv_indices(rng: random.Random) -> list[tuple[int, ...]]:
    chosen = []
    for w, quota in MZV_PAIRS.items():
        pairs = sorted(
            {tuple(sorted((k.parts, dual(k).parts))) for k in mz.indices_of_weight(w) if k.admissible and dual(k) != k}
        )
        chosen += rng.sample(pairs, quota)
    return [parts for pair in chosen for parts in pair] + list(CLOSED_FORMS)


def make_stream(seed: int) -> list[tuple]:
    """The call stream of one seed: a list of ``(kind, *arguments)`` tuples."""
    rng = random.Random(seed)
    calls: list[tuple] = []
    small = shapes(range(1, 6))
    for op, (w1, d1), (w2, d2) in grid(MIX["product"], ["harmonic", "shuffle"], small, small):
        calls.append(("product", op, random_index(rng, w1, d1).parts, random_index(rng, w2, d2).parts))
    n_brute = MIX["sum"] // 4  # small N, plain chain: cheap enough for the brute-force oracle
    for i, ((w, d),) in enumerate(grid(n_brute, [(w, d) for w, d in shapes(range(1, 7)) if d <= 3])):
        calls.append(("sum", "plain", random_index(rng, w, d).parts, 20 + i * (SUM_BRUTE_MAX_N - 20) // n_brute))
    n_large = MIX["sum"] - n_brute
    for i, (variant, (w, d)) in enumerate(grid(n_large, ["plain", "flat"], shapes(range(1, 7)))):
        n = round((SUM_BRUTE_MAX_N + 1) * (SUM_MAX_N / (SUM_BRUTE_MAX_N + 1)) ** (i / (n_large - 1)))
        calls.append(("sum", variant, random_index(rng, w, d).parts, n))
    for op, (wk, dk), (wl, dl) in grid(MIX["regularize"], ["star", "sh"], small, shapes(range(2, 6), admissible=True)):
        k = random_index(rng, wk, dk)
        l = random_index(rng, wl, dl, admissible=True)
        calls.append(("regularize", op, k.parts, l.parts))
    calls.extend(("mzv", parts) for parts in _mzv_indices(rng))
    decay_cells = [
        (d1, d0, w1, w0, log_n)
        for w1, w0, log_n in DECAY_PLAN
        for _, d1 in shapes(range(w1, w1 + 1))
        for _, d0 in shapes(range(w0, w0 + 1), admissible=True)
    ]
    for i, ((d1, d0, w1, w0, log_n),) in enumerate(grid(MIX["decay"], decay_cells)):
        k1 = random_index(rng, w1, d1)
        k0 = random_index(rng, w0, d0, admissible=True)
        calls.append(("decay", k1.parts, k0.parts, DECAY_LO + i, 1 << log_n))
    rng.shuffle(calls)
    return calls


def _defect(k: tuple[int, ...], l: tuple[int, ...]) -> mz.LinComb:
    x = mz.LinComb.of_index(mz.Index(k))
    y = mz.LinComb.of_index(mz.Index(l))
    return mz.harmonic(x, y) - mz.shuffle(x, y)


def execute(call: tuple):
    """Run one call and return what the check needs."""
    kind = call[0]
    if kind == "product":
        _, op, k, l = call
        product = mz.harmonic if op == "harmonic" else mz.shuffle
        return product(mz.LinComb.of_index(mz.Index(k)), mz.LinComb.of_index(mz.Index(l)))
    if kind == "sum":
        _, variant, k, n = call
        evaluator = mz.zeta_lt if variant == "plain" else mz.zeta_flat
        return evaluator(mz.Index(k), n)
    if kind == "regularize":
        _, op, k, l = call
        defect = _defect(k, l)
        decompose = mz.star_decompose if op == "star" else mz.shuffle_decompose
        return defect, decompose(defect)
    if kind == "mzv":
        return mz.mzv(mz.Index(call[1]), MZV_TOL)
    if kind == "decay":
        _, k1, k0, lo, n_max = call
        defect = _defect(k1, k0)
        schedule = [lo << i for i in range((n_max // lo).bit_length())]
        residuals = [(n, abs(numeric.zn_apply_f(defect, n, "plain"))) for n in schedule]
        return mz.fit_log_rate(residuals, a_max=sum(k1) + sum(k0) + 1)
    raise ValueError(f"unknown call kind {kind!r}")


# ---------------------------------------------------------------------------
# independent checks


def _shuffle_oracle(a: tuple[int, ...], b: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Interleavings of two letter tuples, counted by placing ``a``'s letters."""
    out: dict[tuple[int, ...], int] = {}
    total = len(a) + len(b)
    for positions in itertools.combinations(range(total), len(a)):
        placed = dict(zip(positions, a))
        rest = iter(b)
        word = tuple(placed[i] if i in placed else next(rest) for i in range(total))
        out[word] = out.get(word, 0) + 1
    return out


def _stuffle_oracle(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Quasi-shuffles of two part tuples, by a left-to-right walk of the merge grid."""
    if not u or not v:
        return {u + v: 1}
    out: dict[tuple[int, ...], int] = {}
    for head, rest in (((u[0],), (u[1:], v)), ((v[0],), (u, v[1:])), ((u[0] + v[0],), (u[1:], v[1:]))):
        for tail, mult in _stuffle_oracle(*rest).items():
            out[head + tail] = out.get(head + tail, 0) + mult
    return out


def _oracle_product(op: str, k: tuple[int, ...], l: tuple[int, ...]) -> mz.LinComb:
    if op == "harmonic":
        table = _stuffle_oracle(k, l)
        return mz.LinComb((mz.word_of_index(mz.Index(p)), m) for p, m in table.items())
    a = mz.word_of_index(mz.Index(k)).letters()
    b = mz.word_of_index(mz.Index(l)).letters()
    return mz.LinComb((mz.Word.from_letters(w), m) for w, m in _shuffle_oracle(a, b).items())


def _exact_closed_form(parts: tuple[int, ...]) -> float | None:
    """zeta(1,2) = zeta(3) and zeta({2}^n) = pi^(2n) / (2n+1)!, from mpmath."""
    import mpmath

    with mpmath.workdps(30):
        if parts in ((1, 2), (3,)):
            return float(mpmath.zeta(3))
        if set(parts) == {2}:
            n = len(parts)
            return float(mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1))
    return None


def check(calls: list[tuple], results: list) -> list[bool]:
    """Whether each call's result passes its check; a call that raised has
    result None and counts as not passing."""
    mzv_values = {c[1]: r for c, r in zip(calls, results) if c[0] == "mzv" and r is not None}
    verdicts = []
    for call, result in zip(calls, results):
        kind = call[0]
        if result is None:
            ok = False
        elif kind == "product":
            ok = result == _oracle_product(*call[1:])
        elif kind == "sum":
            _, variant, k, n = call
            other = mz.zeta_flat if variant == "plain" else mz.zeta_lt
            ok = result == other(mz.Index(k), n)  # thm-msw: plain and flat sums agree exactly
            if ok and variant == "plain" and n <= SUM_BRUTE_MAX_N:
                ok = result == mz.brute_force(mz.Index(k), n)
        elif kind == "regularize":
            defect, poly = result
            ok = mz.reconstruct(poly, "harmonic" if call[1] == "star" else "shuffle") == defect
        elif kind == "mzv":
            exact = _exact_closed_form(call[1])
            if exact is not None:
                ok = abs(result.value - exact) <= result.error_bound
            else:
                partner = mzv_values.get(dual(mz.Index(call[1])).parts)
                ok = partner is not None and abs(result.value - partner.value) <= result.error_bound + partner.error_bound
        else:
            ok = result.ok
        verdicts.append(ok)
    return verdicts
