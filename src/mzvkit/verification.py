"""Verification campaigns, reports, and the claim catalog.

Each identity or estimate in the double-shuffle story is pinned to a claim id
and an executable campaign; exact statements are checked with rational
arithmetic, asymptotic ones through residual schedules and log-rate fits.
Every campaign forms every value its cases need before its first case, and
its cases only read, compare and fit.  thm-msw, fact-harmonic-product,
prop-flat-natural, prop-asymp-shuffle, thm-main and prop-asymp-H build the
combinations of all their cases first and walk the union of their words
once per N (:func:`mzvkit.finite_sums.walk_words`,
:func:`mzvkit.numeric.walk_words_f`; thm-msw and prop-flat-natural once per
variant).  thm-msw and fact-harmonic-product then form both sides of every
case through ``zn_apply`` on the exact tables, and prop-asymp-shuffle the
exact decomposition of every pair at its small N.  The four float
campaigns keep the tables that ``walk_words_f`` returns, and their cases
read each combination from them through :func:`mzvkit.numeric.zn_read_f`,
the read step of ``zn_apply_f``, so that no case walks or scans for missing
words.  lemma-R walks the distinct chains of its three claims once per N
(:func:`mzvkit.numeric.walk_chains_f`), and prop-asymp-Li sums the
polylogarithm series of all its indices in one pass over its z grid
(:func:`mzvkit.numeric._li_series`).  prop-asymp-H and prop-asymp-Li build
every index's regularized polynomial and evaluate it at every point of
their grid, and each EDSR claim regularizes and evaluates every defect, on
its own side only.  Each passes ``started`` to :func:`_report`, so that the
claim's time covers that work; sentinel cases run after the cases.
Reports are canonical JSON: given the same configuration (seed included) two
runs produce byte-identical files.  Wall-clock timing is therefore kept out
of the serialized reports (the ``elapsedMs`` field is present but null) and
printed on the console instead.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import finite_sums as fs
from . import numeric as num
from . import regularization as reg
from .algebra import (
    Index,
    LinComb,
    Word,
    admissible_indices_up_to,
    harmonic,
    indices_of_weight,
    indices_up_to_weight,
    shuffle,
)
from .errors import CapExceededError, DomainError

DEFAULT_SCHEDULE = tuple(2 ** e for e in range(4, 15))  # 16 .. 16384
MSW_N_CAP = 60  # thm-msw's exact sweep keeps the schedule entries up to this N
SHUFFLE_EXACT_N = 10  # least N of prop-asymp-shuffle's exact decomposition
NOISE_FLOOR = 1e-10  # rate fits count residuals below this as 0
# prop-asymp-Li's polylogarithm tolerance, a tenth of the noise floor, so that
# the series' truncation error stays below the residuals the rate fit counts as 0
LI_TOL = NOISE_FLOOR / 10


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs shared by all campaigns; defaults match the acceptance runs.

    Settings that no run varies are constants instead: the MZV tolerance
    and the rate-fit slack in :mod:`mzvkit.numeric`, the exact-sweep N cap,
    the exact-decomposition N, the noise floor and prop-asymp-Li's
    polylogarithm tolerance in this module.  :meth:`to_dict` still records
    them.  The EDSR claims have no tolerance: a case passes iff its residual
    is at most the certified error bound of its own float sum
    (:func:`mzvkit.numeric.eval_reg_polynomial`), with ``<=`` because a
    defect that regularizes to the empty combination has both at 0.
    """

    max_weight: int = 3
    msw_max_weight: int = 6
    n_schedule: tuple[int, ...] = DEFAULT_SCHEDULE
    harmonic_pairs: int = 100
    harmonic_weight: int = 5
    harmonic_n: int = 100
    seed: int = 20240801
    out_dir: str | None = None
    out_format: str = "json"

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise ValueError("the N schedule must be strictly increasing")
        if min(self.n_schedule, default=0) < 2:
            raise ValueError("the N schedule must be non-empty, with entries at least 2")
        if self.harmonic_n < 1:
            raise ValueError("harmonic_n must be at least 1")
        if self.out_format not in ("json", "csv"):
            raise ValueError("out_format must be 'json' or 'csv'")
        if min(self.max_weight, self.msw_max_weight, self.harmonic_weight) < 0:
            raise ValueError("weight bounds must be non-negative")
        if self.msw_max_weight > 8:
            raise ValueError("cost guard: thm-msw's exact sweep is limited to msw_max_weight <= 8")

    def to_dict(self) -> dict:
        return {
            "maxWeight": self.max_weight,
            "mswMaxWeight": self.msw_max_weight,
            "mswNCap": MSW_N_CAP,
            "nSchedule": list(self.n_schedule),
            "harmonicPairs": self.harmonic_pairs,
            "harmonicWeight": self.harmonic_weight,
            "harmonicN": self.harmonic_n,
            "shuffleExactN": SHUFFLE_EXACT_N,
            "mzvTol": num.DEFAULT_MZV_TOL,
            "liTol": LI_TOL,
            "rateSlack": num.RATE_SLACK,
            "noiseFloor": NOISE_FLOOR,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class Case:
    key: str
    inputs: dict
    passed: bool
    detail: dict


@dataclass(frozen=True)
class Report:
    claim_id: str
    parameters: dict
    cases: tuple[Case, ...]
    verdict: str
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "claimId": self.claim_id,
            "parameters": self.parameters,
            "cases": [
                {"case": c.key, "inputs": c.inputs, "passed": c.passed, **c.detail}
                for c in self.cases
            ],
            "verdict": self.verdict,
            # wall time is intentionally not serialized so that reports are
            # byte-identical across runs; see the console output for timing
            "elapsedMs": None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["case", "passed", "detail"])
        for c in self.cases:
            detail = json.dumps({"inputs": c.inputs, **c.detail}, sort_keys=True)
            writer.writerow([c.key, int(c.passed), detail])
        return out.getvalue()


def _map_cases(cfg: CampaignConfig, func: Callable, items: Sequence) -> list:
    # cfg is unused, but perfbench/child.py swaps in a timing wrapper with this signature
    return [func(item) for item in items]


def _report(
    cfg: CampaignConfig,
    claim_id: str,
    params: dict,
    check: Callable[..., Case],
    items: Sequence,
    extra: Callable[[], list[Case]] = list,
    started: float | None = None,
) -> Report:
    """Check every item, append the ``extra()`` sentinel cases, and time the claim.

    ``started``, a ``time.perf_counter()`` reading, starts the timer before
    the call, so that the time covers the campaign's walk over its words.
    A claim with no cases fails: nothing was checked.
    """
    if started is None:
        started = time.perf_counter()
    cases = tuple(sorted(_map_cases(cfg, check, items) + extra(), key=lambda c: c.key))
    verdict = "pass" if cases and all(c.passed for c in cases) else "fail"
    return Report(claim_id, params, cases, verdict, (time.perf_counter() - started) * 1000.0)


def _rate_case(
    key: str,
    inputs: dict,
    residuals: Iterable[tuple[int, float]],
    a_max: int,
    *,
    floor: float = NOISE_FLOOR,
    passed: bool = True,
    **detail,
) -> Case:
    """Fit the O(N^-1 log^a N) rate of residuals, counting those below the noise floor as 0.

    Residuals the fitter refuses, such as fewer than five, fail the case.
    """
    clamped = [(n, 0.0 if abs(r) < floor else abs(r)) for n, r in residuals]
    try:
        fit = num.fit_log_rate(clamped, a_max=a_max)
    except DomainError as exc:
        return Case(key, inputs, False, {"error": str(exc), **detail})
    return Case(key, inputs, passed and fit.ok, {"fit": fit.to_dict(), **detail})


def _exact_case(key: str, inputs: dict, lhs: Fraction, rhs: Fraction) -> Case:
    """The exact equality lhs == rhs."""
    return Case(key, inputs, lhs == rhs, {"lhs": _frac(lhs), "rhs": _frac(rhs), "exact": lhs == rhs})


def _rate_params(cfg: CampaignConfig) -> dict:
    return {"maxWeight": cfg.max_weight, "schedule": list(cfg.n_schedule), "slack": num.RATE_SLACK}


def _words(combos: Iterable[LinComb]) -> set[Word]:
    """The words of these combinations, walked once for all of a campaign's cases."""
    return {w for x in combos for w in x.support()}


def _defect(k: Index, l: Index) -> LinComb:
    """The double shuffle defect k * l - k sh l of two indices' words."""
    x, y = LinComb.of_index(k), LinComb.of_index(l)
    return harmonic(x, y) - shuffle(x, y)


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _random_index(rng: random.Random, max_weight: int) -> Index:
    weight = rng.randint(0, max_weight)
    parts: list[int] = []
    remaining = weight
    while remaining:
        part = rng.randint(1, remaining)
        parts.append(part)
        remaining -= part
    return Index(tuple(parts))


# ---------------------------------------------------------------------------
# campaigns


def verify_msw(cfg: CampaignConfig) -> list[Report]:
    """Exact equality of the plain and discretized truncated sums.

    Every index's word takes one walk per N and variant, and both sums of
    every (index, N) are read from the exact tables, before the first case."""
    started = time.perf_counter()
    n_values = [n for n in cfg.n_schedule if n <= MSW_N_CAP]  # none: the claim fails with 0 cases
    indices = [(k, LinComb.of_index(k)) for w in range(1, cfg.msw_max_weight + 1) for k in indices_of_weight(w)]
    words = _words(x for _, x in indices)
    for n in n_values:
        for variant in ("plain", "flat"):
            fs.walk_words(words, n, variant)
    items = [(k, n, fs.zn_apply(x, n, "plain"), fs.zn_apply(x, n, "flat")) for k, x in indices for n in n_values]

    def check(item: tuple[Index, int, Fraction, Fraction]) -> Case:
        k, n, plain, flat = item
        return _exact_case(f"k=({k});N={n:06d}", {"index": str(k), "N": n}, plain, flat)

    params = {"maxWeight": cfg.msw_max_weight, "nValues": n_values, "indexCount": len(indices)}
    return [_report(cfg, "thm-msw", params, check, items, started=started)]


def verify_harmonic(cfg: CampaignConfig) -> list[Report]:
    """Exact multiplicativity of the truncated evaluation under the harmonic product.

    The words of every pair take one walk, and both sides of every pair are
    read from the exact table, before the first case."""
    started = time.perf_counter()
    rng = random.Random(cfg.seed)
    pairs = [(Index(()), Index((2,))), (Index((2,)), Index((2,)))]
    while len(pairs) < cfg.harmonic_pairs:
        pairs.append((_random_index(rng, cfg.harmonic_weight), _random_index(rng, cfg.harmonic_weight)))
    items = []
    for i, (k1, k2) in enumerate(pairs):
        x, y = LinComb.of_index(k1), LinComb.of_index(k2)
        items.append((i, k1, k2, (harmonic(x, y), x, y)))
    n = cfg.harmonic_n
    fs.walk_words(_words(z for *_, combos in items for z in combos), n)
    sides = [(i, k1, k2, fs.zn_apply(p, n), fs.zn_apply(x, n) * fs.zn_apply(y, n)) for i, k1, k2, (p, x, y) in items]

    def check(item: tuple[int, Index, Index, Fraction, Fraction]) -> Case:
        i, k1, k2, lhs, rhs = item
        return _exact_case(f"pair{i:03d}", {"k1": str(k1), "k2": str(k2), "N": n}, lhs, rhs)

    params = {"pairs": len(pairs), "pairWeight": cfg.harmonic_weight, "N": cfg.harmonic_n, "seed": cfg.seed}
    return [_report(cfg, "fact-harmonic-product", params, check, sides, started=started)]


def verify_flat_natural(cfg: CampaignConfig) -> list[Report]:
    """Flat and fully-strict discretized sums differ by O(N^-1 log^a N)."""
    started = time.perf_counter()
    items = [(k, LinComb.of_index(k)) for k in indices_up_to_weight(cfg.max_weight)]
    words = _words(x for _, x in items)
    tables = [num.walk_words_f(words, cfg.n_schedule, variant) for variant in ("flat", "natural")]

    def check(item: tuple[Index, LinComb]) -> Case:
        k, x = item
        grids = (num.zn_read_f(x, variant_tables) for variant_tables in tables)
        residuals = [(n, flat - natural) for n, flat, natural in zip(cfg.n_schedule, *grids)]
        return _rate_case(f"k=({k})", {"index": str(k)}, residuals, k.weight + 1)

    return [_report(cfg, "prop-flat-natural", _rate_params(cfg), check, items, started=started)]


_LEMMA_R_GENERAL = ("1;0", "1;1", "2;2", "1,1;0,0", "2,1;0,0", "1,2;0,0")
_LEMMA_R_DECAY = ("1;1", "2;1", "1;2", "1,1;0,1", "2,1;0,1")  # some b_i >= 1 with a_i+b_i >= 2
_LEMMA_R_CROSS = ("2,0;0,1", "3,0;0,1", "2,2,0;0,0,1")  # a_i >= 2 before some b_j >= 1


def verify_lemma_r(cfg: CampaignConfig) -> list[Report]:
    """Boundedness of the R sums: log^k growth in general, N^-1 log^k decay
    under either sufficient condition, plus the two limit sentinels.

    The distinct chains of all three claims take one walk per N before the
    first case, and the cases and the divergence sentinel read their sums."""
    started = time.perf_counter()
    args = {text: fs.RArgs.parse(text) for text in _LEMMA_R_GENERAL + _LEMMA_R_DECAY + _LEMMA_R_CROSS}
    chains = {text: fs.ConstraintChain.from_rargs(a) for text, a in args.items()}
    sums = num.walk_chains_f(chains.values(), cfg.n_schedule)

    def growth(text: str) -> Case:
        # feeding R/N lets the N-normalized fitter bound R / log^a N itself
        values = [(n, value / n) for n, value in zip(cfg.n_schedule, sums[chains[text]])]
        floor = NOISE_FLOOR / max(cfg.n_schedule)
        return _rate_case(f"R=({text})", {"rargs": text}, values, args[text].depth, floor=floor)

    def decay(text: str) -> Case:
        residuals = list(zip(cfg.n_schedule, sums[chains[text]]))
        return _rate_case(f"R=({text})", {"rargs": text}, residuals, args[text].depth + 1)

    def sentinels() -> list[Case]:
        # R(2,1;0,0) converges to the weight-3 nested zeta value
        sentinel_n = 10 ** 5
        limit = num.mzv(Index((1, 2)))
        approached = num.r_value_f(args["2,1;0,0"], sentinel_n)
        gap = abs(approached - limit.value)
        # R(1,2;0,0) grows without bound (strictly increasing schedule)
        divergent = sums[chains["1,2;0,0"]]
        increasing = all(b > a for a, b in zip(divergent, divergent[1:]))
        return [
            Case(
                key="sentinel-limit-(2,1;0,0)",
                inputs={"rargs": "2,1;0,0", "N": sentinel_n},
                passed=gap + limit.error_bound < 0.01,
                detail={"value": approached, "limit": limit.value, "gap": gap, "tol": 0.01},
            ),
            Case(
                key="sentinel-divergence-(1,2;0,0)",
                inputs={"rargs": "1,2;0,0", "schedule": list(cfg.n_schedule)},
                passed=increasing,
                detail={"values": divergent, "strictlyIncreasing": increasing},
            ),
        ]

    params = {"schedule": list(cfg.n_schedule), "slack": num.RATE_SLACK}
    reports = []
    for claim_id, texts, check, extra in (
        ("lemma-R-i", _LEMMA_R_GENERAL, growth, sentinels),
        ("lemma-R-ii", _LEMMA_R_DECAY, decay, list),
        ("lemma-R-iii", _LEMMA_R_CROSS, decay, list),
    ):
        reports.append(_report(cfg, claim_id, {**params, "cases": list(texts)}, check, texts, extra, started))
        started = None  # the first claim's time covers the walks
    return reports


def _shuffle_pairs(cfg: CampaignConfig) -> list[tuple[Index, Index]]:
    lefts = indices_up_to_weight(cfg.max_weight, include_empty=True)
    rights = [k for k in admissible_indices_up_to(cfg.max_weight) if k.parts]
    return [(k, l) for k in lefts for l in rights]


def _shuffle_exact_n(k: Index, l: Index) -> int:
    # a natural chain longer than N - 1 sums to 0, so keep N above the pair's weight
    return max(SHUFFLE_EXACT_N, k.weight + l.weight + 1)


def verify_asymp_shuffle(cfg: CampaignConfig) -> list[Report]:
    """The strict-chain evaluation satisfies the shuffle product formula up to
    O(N^-1 log^a N), and exactly up to explicit diagonal terms at small N.

    Both sides of every pair's exact decomposition are formed before the
    first case, and the cases read the float sums of the campaign's walk."""
    started = time.perf_counter()
    pairs = []
    exact_words: dict[int, set[Word]] = {}
    for k, l in _shuffle_pairs(cfg):
        x, y = LinComb.of_index(k), LinComb.of_index(l)
        combos = (x, y, shuffle(x, y))
        n0 = _shuffle_exact_n(k, l)
        pairs.append((k, l, n0, combos))
        exact_words.setdefault(n0, set()).update(_words(combos))
    tables = num.walk_words_f(_words(z for *_, combos in pairs for z in combos), cfg.n_schedule, "natural")
    for n0, words in exact_words.items():
        fs.walk_words(words, n0, "natural")
    items = []
    for k, l, n0, combos in pairs:
        x, y, sh = combos
        exact_lhs = fs.zn_apply(x, n0, "natural") * fs.zn_apply(y, n0, "natural")
        exact_rhs = fs.zn_apply(sh, n0, "natural") + fs.diagonal_terms(k, l, n0)
        items.append((k, l, combos, n0, exact_lhs, exact_rhs))

    def check(item: tuple[Index, Index, tuple[LinComb, LinComb, LinComb], int, Fraction, Fraction]) -> Case:
        k, l, combos, n0, exact_lhs, exact_rhs = item
        grids = (num.zn_read_f(z, tables) for z in combos)
        residuals = [(n, a * b - c) for n, a, b, c in zip(cfg.n_schedule, *grids)]
        exact_ok = exact_lhs == exact_rhs
        return _rate_case(
            f"w1=({k});w0=({l})",
            {"w1": str(k), "w0": str(l)},
            residuals,
            k.weight + l.weight + 1,
            passed=exact_ok,
            exactN=n0,
            exactDecomposition=exact_ok,
            exactLhs=_frac(exact_lhs),
            exactRhs=_frac(exact_rhs),
        )

    params = {**_rate_params(cfg), "exactN": SHUFFLE_EXACT_N}
    return [_report(cfg, "prop-asymp-shuffle", params, check, items, started=started)]


def verify_asymp_dsr(cfg: CampaignConfig) -> list[Report]:
    """The two products agree under the truncated evaluation up to O(N^-1 log^a N)."""
    started = time.perf_counter()
    items = [(k, l, _defect(k, l)) for k, l in _shuffle_pairs(cfg)]
    tables = num.walk_words_f(_words(diff for *_, diff in items), cfg.n_schedule, "plain")

    def check(item: tuple[Index, Index, LinComb]) -> Case:
        k, l, diff = item
        residuals = list(zip(cfg.n_schedule, num.zn_read_f(diff, tables)))
        inputs = {"w1": str(k), "w0": str(l)}
        return _rate_case(f"w1=({k});w0=({l})", inputs, residuals, k.weight + l.weight + 1, terms=len(diff))

    return [_report(cfg, "thm-main", _rate_params(cfg), check, items, started=started)]


def verify_asymp_h(cfg: CampaignConfig) -> list[Report]:
    """Truncated sums follow the harmonic regularized polynomial at log N + gamma.

    Every index's polynomial is built and evaluated at every log N + gamma
    before the first case, and the cases read the sums of the campaign's walk."""
    started = time.perf_counter()
    gamma = num.euler_gamma().value
    items = [(k, LinComb.of_index(k)) for k in indices_up_to_weight(cfg.max_weight, include_empty=True)]
    tables = num.walk_words_f(_words(x for _, x in items), cfg.n_schedule, "plain")
    zetas: dict[Word, num.Real] = {}
    points = [math.log(n) + gamma for n in cfg.n_schedule]
    cases = []
    for k, x in items:
        poly = reg.z_star_polynomial(k)
        cases.append((k, x, poly.degree, [num.eval_reg_polynomial(poly, t, zetas).value for t in points]))

    def check(item: tuple[Index, LinComb, int, list[float]]) -> Case:
        k, x, degree, predicted = item
        values = num.zn_read_f(x, tables)
        residuals = [(n, value - p) for n, value, p in zip(cfg.n_schedule, values, predicted)]
        return _rate_case(f"k=({k})", {"index": str(k)}, residuals, k.weight + 1, polynomialDegree=degree)

    def sentinel() -> list[Case]:
        # H_{N-1} - log N - gamma stays below 1/N over six decades
        n_values = [10 ** exponent for exponent in range(1, 7)]
        residuals = [abs(num.harmonic_number_f(n - 1) - math.log(n) - gamma) for n in n_values]
        return [
            Case(
                key="sentinel-harmonic-gamma",
                inputs={"nValues": n_values},
                passed=all(r < 1.0 / n for n, r in zip(n_values, residuals)),
                detail={"residuals": [[n, r] for n, r in zip(n_values, residuals)], "bound": "1/N"},
            )
        ]

    return [_report(cfg, "prop-asymp-H", _rate_params(cfg), check, cases, sentinel, started=started)]


def verify_asymp_li(cfg: CampaignConfig) -> list[Report]:
    """Polylogarithms follow the shuffle regularized polynomial at -log(1-z).

    One pass of the series serves every index at every point of the z grid,
    and every index's polynomial is evaluated at every -log(1-z), before the
    first case; an index whose series is capped gets no prediction and fails
    its case."""
    started = time.perf_counter()
    # a schedule with fewer than five powers of two fails every case's rate fit
    exponents = [e for e in range(2, 31) if (1 << e) in cfg.n_schedule]
    zs = [1.0 - 0.5 ** e for e in exponents]
    indices = indices_up_to_weight(cfg.max_weight, include_empty=True)
    series = num._li_series([k.parts for k in indices], zs, LI_TOL)
    zetas: dict[Word, num.Real] = {}
    points = [-math.log1p(-z) for z in zs]
    items = []
    for k in indices:
        poly = reg.z_shuffle_polynomial(k)
        observed = series[k.parts]
        capped = isinstance(observed, CapExceededError)
        predicted = None if capped else [num.eval_reg_polynomial(poly, t, zetas).value for t in points]
        items.append((k, poly.degree, observed, predicted))

    def check(item: tuple[Index, int, list[num.Real] | CapExceededError, list[float] | None]) -> Case:
        k, degree, observed, predicted = item
        key, inputs = f"k=({k})", {"index": str(k), "zGrid": [f"1-2^-{e}" for e in exponents]}
        if predicted is None:
            return Case(key, inputs, False, {"error": str(observed), "polynomialDegree": degree})
        residuals = [(1 << e, value.value - p) for e, value, p in zip(exponents, observed, predicted)]
        return _rate_case(key, inputs, residuals, k.weight + 1, polynomialDegree=degree)

    params = {"maxWeight": cfg.max_weight, "zExponents": exponents, "slack": num.RATE_SLACK, "liTol": LI_TOL}
    return [_report(cfg, "prop-asymp-Li", params, check, items, started=started)]


# each claim's regularization, named in ``reg`` so that a rebound one is called
EDSR_SIDES = {"thm-edsr-star": "reg_star", "thm-edsr-sh": "reg_shuffle"}


def verify_edsr(cfg: CampaignConfig, claims: Sequence[str] = tuple(EDSR_SIDES)) -> list[Report]:
    """Both regularizations annihilate the product defect numerically.

    The MZV of each regularized defect is exactly 0, so a case passes iff
    ``|value| <= errorBound``, the certified bound of
    :func:`mzvkit.numeric.eval_reg_polynomial` on the defect as a constant.
    ``claims`` picks the sides to check, so that one claim computes only its
    own.  Each pair's defect is built once, before the first claim, and each
    claim regularizes and evaluates every defect before its first case; its
    time covers that work.
    """
    started = time.perf_counter()
    lefts = indices_up_to_weight(cfg.max_weight, include_empty=True)
    rights = admissible_indices_up_to(cfg.max_weight, include_empty=True)
    items = [(k, l, _defect(k, l)) for k in lefts for l in rights]

    def check(item: tuple[Index, Index, int, num.Real]) -> Case:
        k, l, terms, z = item
        residual = abs(z.value)
        return Case(
            key=f"w1=({k});w0=({l})",
            inputs={"w1": str(k), "w0": str(l)},
            passed=residual <= z.error_bound,
            detail={"residual": residual, "errorBound": z.error_bound, "terms": terms},
        )

    zetas: dict[Word, num.Real] = {}
    params = {"maxWeight": cfg.max_weight, "mzvTol": num.DEFAULT_MZV_TOL}
    reports = []
    for claim_id in claims:
        regularize = getattr(reg, EDSR_SIDES[claim_id])
        side = []
        for k, l, diff in items:
            regularized = regularize(diff)
            z = num.eval_reg_polynomial(reg.RegPolynomial.constant(regularized), 0.0, zetas)
            side.append((k, l, len(regularized), z))
        reports.append(_report(cfg, claim_id, params, check, side, started=started))
        started = time.perf_counter()  # the next claim's time covers its own side
    return reports


# ---------------------------------------------------------------------------
# catalog and the runner

OUT_OF_SCOPE_CLAIMS = {
    "thm-regularization-rho": "comparison map between the two regularizations; "
    "its explicit formula lives outside this toolkit and is probed only "
    "indirectly through the two asymptotic campaigns",
}

CAMPAIGNS: tuple[tuple[str, Callable[[CampaignConfig], list[Report]], tuple[str, ...]], ...] = (
    ("msw", verify_msw, ("thm-msw",)),
    ("harmonic", verify_harmonic, ("fact-harmonic-product",)),
    ("flat-natural", verify_flat_natural, ("prop-flat-natural",)),
    ("lemma-r", verify_lemma_r, ("lemma-R-i", "lemma-R-ii", "lemma-R-iii")),
    ("asymp-shuffle", verify_asymp_shuffle, ("prop-asymp-shuffle",)),
    ("asymp-dsr", verify_asymp_dsr, ("thm-main",)),
    ("asymp-h", verify_asymp_h, ("prop-asymp-H",)),
    ("asymp-li", verify_asymp_li, ("prop-asymp-Li",)),
    ("edsr", verify_edsr, ("thm-edsr-star", "thm-edsr-sh")),
)

CLAIM_IDS: tuple[str, ...] = tuple(
    claim for _, _, claims in CAMPAIGNS for claim in claims
) + tuple(OUT_OF_SCOPE_CLAIMS)


def campaign_for_claim(claim_id: str) -> Callable[[CampaignConfig], list[Report]]:
    for _, func, claims in CAMPAIGNS:
        if claim_id in claims:
            return func
    if claim_id in OUT_OF_SCOPE_CLAIMS:
        raise DomainError(
            f"claim {claim_id!r} is recorded as out of scope: {OUT_OF_SCOPE_CLAIMS[claim_id]}"
        )
    raise DomainError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_IDS)}")


def write_reports(reports: Sequence[Report], cfg: CampaignConfig) -> list[Path]:
    if cfg.out_dir is None:
        return []
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for report in reports:
        path = out / f"{report.claim_id}.{cfg.out_format}"
        path.write_text(report.to_json() if cfg.out_format == "json" else report.to_csv())
        written.append(path)
    return written


def write_summary(reports: Sequence[Report], cfg: CampaignConfig) -> Path | None:
    if cfg.out_dir is None:
        return None
    summary = {
        "verdict": "pass" if all(r.passed for r in reports) else "fail",
        "claims": {r.claim_id: r.verdict for r in reports},
        "outOfScope": dict(OUT_OF_SCOPE_CLAIMS),
        "config": cfg.to_dict(),
    }
    path = Path(cfg.out_dir) / "summary.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return path


def run_all(
    cfg: CampaignConfig, claim: str = "all", *, echo: Callable[[str], None] | None = None
) -> tuple[list[Report], int]:
    """Run every campaign, or the one of ``claim``, write reports, and return (reports, exit status).

    One claim keeps and writes only its own report, and no ``summary.json``;
    an EDSR claim checks only its own side.  An unknown or out-of-scope claim,
    or a report directory that cannot be made, raises DomainError before any
    campaign runs.  If a campaign raises, the reports of the campaigns before
    it are written and ``summary.json`` is not.
    """
    if claim == "all":
        campaigns = [func for _, func, _ in CAMPAIGNS]
    elif claim in EDSR_SIDES:
        campaigns = [lambda cfg: verify_edsr(cfg, (claim,))]
    else:
        campaigns = [campaign_for_claim(claim)]
    if cfg.out_dir is not None:
        # before any campaign runs, so that a bad path costs no run
        try:
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DomainError(f"cannot create the report directory: {exc}") from exc
    reports: list[Report] = []
    try:
        for func in campaigns:
            for report in func(cfg):
                if claim not in ("all", report.claim_id):
                    continue  # another claim of the same campaign
                reports.append(report)
                if echo is not None:
                    echo(
                        f"{report.claim_id}: {report.verdict.upper()} "
                        f"({len(report.cases)} cases, {report.elapsed_ms:.0f} ms)"
                    )
    finally:
        write_reports(reports, cfg)
    if claim == "all":
        write_summary(reports, cfg)
        if echo is not None:
            for out_of_scope, note in OUT_OF_SCOPE_CLAIMS.items():
                echo(f"{out_of_scope}: OUT-OF-SCOPE ({note})")
    status = 0 if all(r.passed for r in reports) else 1
    return reports, status
