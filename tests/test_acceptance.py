"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from mzvkit.algebra import (
    Index,
    LinComb,
    harmonic,
    indices_up_to_weight,
    shuffle,
    word_of_index,
)
from mzvkit.finite_sums import (
    RArgs,
    brute_force,
    r_value,
    zeta_flat,
    zeta_lt,
    zeta_natural,
)
from mzvkit.numeric import EULER_GAMMA, harmonic_number_f, mzv
from mzvkit.regularization import (
    poly_mul,
    reconstruct,
    reg_star,
    shuffle_decompose,
    star_decompose,
)
from mzvkit.verification import (
    CampaignConfig,
    run_all,
    verify_asymp_dsr,
    verify_asymp_shuffle,
    verify_edsr,
    verify_flat_natural,
    verify_harmonic,
    verify_lemma_r,
    verify_msw,
)


def announce(number: int, name: str, started: float, passed: bool = True) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {status} ({time.perf_counter() - started:.1f}s)")


def idx(*parts):
    return Index(tuple(parts))


def test_criterion_1_discretization_identity_exact():
    started = time.perf_counter()
    cfg = CampaignConfig(msw_max_weight=6, n_schedule=(2, 5, 10, 25, 50))
    (report,) = verify_msw(cfg)
    assert len(report.cases) == 63 * 5
    assert report.passed
    announce(1, "plain = flat for weight <= 6, five N values", started)


def test_criterion_2_harmonic_homomorphism_exact():
    started = time.perf_counter()
    cfg = CampaignConfig(harmonic_pairs=100, harmonic_weight=5, harmonic_n=100)
    (report,) = verify_harmonic(cfg)
    assert len(report.cases) == 100
    assert report.passed
    announce(2, "Z_N multiplicative on 100 seeded pairs at N = 100", started)


def test_criterion_3_dp_equals_brute_force():
    started = time.perf_counter()
    n_values = range(1, 21)
    for k in indices_up_to_weight(4):
        for n in n_values:
            assert zeta_lt(k, n) == brute_force(k, n, kind="plain"), (k, n, "plain")
            assert zeta_flat(k, n) == brute_force(k, n, kind="flat"), (k, n, "flat")
            assert zeta_natural(k, n) == brute_force(k, n, kind="natural"), (k, n, "natural")
    r_catalog = ("1;0", "1;1", "2;1", "1;2", "2;2", "1,1;0,0", "2,1;0,0", "1,2;0,0", "2,0;0,1", "1,1;1,1")
    for text in r_catalog:
        args = RArgs.parse(text)
        for n in range(2, 21):
            assert r_value(args, n) == brute_force(args, n), (text, n)
    announce(3, "all DP evaluators equal enumeration for weight <= 4, N <= 20", started)


def test_criterion_4_euler_relation_through_pipeline():
    started = time.perf_counter()
    e1 = LinComb.of_index(idx(1))
    e2 = LinComb.of_index(idx(2))
    defect = harmonic(e1, e2) - shuffle(e1, e2)
    regularized = reg_star(defect)
    residual = 0.0
    err = 0.0
    for w, c in regularized.items():
        from mzvkit.algebra import index_of_word

        value = mzv(index_of_word(w), 1e-7)
        residual += float(c) * value.value
        err += abs(float(c)) * value.error_bound
    assert abs(residual) + err < 1e-5
    # independent restatement: the weight-3 depth-1 and depth-2 values agree
    assert abs(mzv(idx(3), 1e-7).value - mzv(idx(1, 2), 1e-7).value) < 1e-5
    announce(4, "|Z(reg_*(e1*e2 - e1 sh e2))| < 1e-5", started)


def test_criterion_5_edsr_sweep():
    started = time.perf_counter()
    cfg = CampaignConfig(max_weight=3)
    star, sh = verify_edsr(cfg)
    # 8 left words (weights 0..3) against 4 admissible right words ((), (2), (3), (1,2))
    assert len(star.cases) == 32 and len(sh.cases) == 32
    assert star.passed and sh.passed
    announce(5, "EDSR residuals within their certified error bounds for all pairs up to weight 3, both maps", started)


def test_criterion_6_harmonic_gamma_sentinel():
    started = time.perf_counter()
    for exponent in range(1, 7):
        n = 10 ** exponent
        assert abs(harmonic_number_f(n - 1) - math.log(n) - EULER_GAMMA) < 1.0 / n
    announce(6, "|H_(N-1) - log N - gamma| < 1/N across six decades", started)


def test_criterion_7_rate_fits():
    started = time.perf_counter()
    cfg = CampaignConfig()  # schedule 2^4 .. 2^14, slack 1.25
    (flat_natural,) = verify_flat_natural(cfg)
    (asymp_shuffle,) = verify_asymp_shuffle(cfg)
    (asymp_dsr,) = verify_asymp_dsr(cfg)
    lemma_reports = verify_lemma_r(cfg)
    for report in (flat_natural, asymp_shuffle, asymp_dsr, *lemma_reports):
        assert report.passed, report.claim_id
        for case in report.cases:
            fit = case.detail.get("fit")
            if fit is not None:
                assert fit["ok"] and fit["fittedLogExponent"] is not None
    announce(7, "log-rate fits bounded with slack 1.25 over 2^4..2^14", started)


def test_criterion_8_r_value_sentinels():
    started = time.perf_counter()
    (lemma_i, _, _) = verify_lemma_r(CampaignConfig())
    sentinels = {c.key: c for c in lemma_i.cases if c.key.startswith("sentinel")}
    limit_case = sentinels["sentinel-limit-(2,1;0,0)"]
    assert limit_case.passed and limit_case.detail["gap"] < 0.01
    divergence_case = sentinels["sentinel-divergence-(1,2;0,0)"]
    assert divergence_case.passed and divergence_case.detail["strictlyIncreasing"]
    announce(8, "R(2,1;0,0) near its limit at N = 1e5; R(1,2;0,0) increasing", started)


def test_criterion_9_regularization_algebra_exact():
    started = time.perf_counter()
    rng = random.Random(20240801)
    elements = []
    while len(elements) < 50:
        terms = []
        for _ in range(rng.randint(1, 3)):
            weight = rng.randint(0, 5)
            parts = []
            while weight:
                part = rng.randint(1, weight)
                parts.append(part)
                weight -= part
            terms.append((word_of_index(idx(*parts)), Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
        element = LinComb(terms)
        elements.append(element)
    for x in elements:
        assert reconstruct(star_decompose(x), "harmonic") == x
        assert reconstruct(shuffle_decompose(x), "shuffle") == x
    for x, y in zip(elements[:25], elements[25:]):
        assert star_decompose(harmonic(x, y)) == poly_mul(star_decompose(x), star_decompose(y), harmonic)
        assert shuffle_decompose(shuffle(x, y)) == poly_mul(
            shuffle_decompose(x), shuffle_decompose(y), shuffle
        )
    announce(9, "round-trip and homomorphism exact on 50 seeded elements", started)


EXACT_REPORT_SHA256 = {
    "thm-msw.json": "a252eefab40651501ac7afb7c3afb61aeb5c651a9ba65851374a8ae0ac71c899",
    "fact-harmonic-product.json": "c07f336d42462e167decc520008ecbc12de4a61d3c6c5ed61e7cd25c695a9d5e",
}


def test_criterion_10_reports_are_deterministic(tmp_path):
    started = time.perf_counter()
    dirs = [tmp_path / "first", tmp_path / "second"]
    for directory in dirs:
        cfg = CampaignConfig(out_dir=str(directory))
        _, status = run_all(cfg)
        assert status == 0
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    # the exact-only reports hold rationals alone, so their bytes are pinned across platforms
    for name, digest in EXACT_REPORT_SHA256.items():
        assert hashlib.sha256((dirs[0] / name).read_bytes()).hexdigest() == digest, name
    announce(10, "verify all twice: byte-identical reports, exact ones as pinned", started)
