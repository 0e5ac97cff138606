import itertools
import math
import tracemalloc
import weakref
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzvkit import euler_maclaurin as em
from mzvkit import finite_sums as fs
from mzvkit import numeric as num
from mzvkit.algebra import (
    Index,
    LinComb,
    Word,
    admissible_indices_up_to,
    harmonic,
    index_of_word,
    indices_of_weight,
    indices_up_to_weight,
    shuffle,
    word_of_index,
)
from mzvkit.errors import CapExceededError, DomainError
from mzvkit.finite_sums import (
    ChainWalk,
    ConstraintChain,
    RArgs,
    r_value,
    variant_chain,
    zeta_flat,
    zeta_lt,
    zeta_natural,
)
from mzvkit.numeric import (
    DEFAULT_MZV_TOL,
    EULER_GAMMA,
    MIN_TOL,
    Real,
    chain_value_f,
    euler_gamma,
    eval_reg_polynomial,
    fit_log_rate,
    harmonic_number_f,
    li_value,
    mzv,
    r_value_f,
    zeta_flat_f,
    zeta_lt_f,
    zeta_natural_f,
    zn_apply_f,
)
from mzvkit.regularization import RegPolynomial, z_shuffle_polynomial, z_star_polynomial
from mzvkit.verification import LI_TOL

from _oracles import chain_value_f_oracle, half_point_oracle, limit_with_error_oracle


def idx(*parts):
    return Index(tuple(parts))


class TestMzv:
    def test_weight_two_is_pi_squared_over_six(self):
        v = mzv(idx(2), 1e-9)
        assert abs(v.value - math.pi ** 2 / 6) < 2e-9
        assert v.error_bound <= 1e-9

    def test_weight_three_matches_reference(self):
        assert abs(mzv(idx(3)).value - float(mpmath.zeta(3))) < 1e-12

    def test_weight_four(self):
        assert abs(mzv(idx(4)).value - math.pi ** 4 / 90) < 1e-12

    def test_euler_relation(self):
        tol = 1e-9
        assert abs(mzv(idx(1, 2), tol).value - mzv(idx(3), tol).value) < 2 * tol

    def test_two_two_closed_form(self):
        z2 = math.pi ** 2 / 6
        z4 = math.pi ** 4 / 90
        assert abs(mzv(idx(2, 2)).value - (z2 ** 2 - z4) / 2) < 1e-12

    def test_depth_reversal_examples(self):
        # mirror-image identities between high-depth and depth-one indices
        assert abs(mzv(idx(1, 1, 2)).value - math.pi ** 4 / 90) < 1e-12
        assert abs(mzv(idx(1, 1, 1, 1, 2)).value - math.pi ** 6 / 945) < 1e-12

    def test_sum_theorem(self):
        # the admissible zeta(k) of weight w and depth d sum to zeta(w) (Granville 1997; Zagier)
        groups = 0
        for w in range(2, 13):
            whole = mzv(idx(w))
            for d in range(1, w):
                values = [mzv(k) for k in indices_of_weight(w) if k.admissible and k.depth == d]
                gap = abs(math.fsum(v.value for v in values) - whole.value)
                assert gap <= math.fsum(v.error_bound for v in values) + whole.error_bound, (w, d)
                groups += 1
        assert groups == 66

    def test_matches_direct_truncation(self):
        # independent check: direct partial sum plus a crude tail window
        n_max = 1 << 15
        grid = np.arange(1, n_max, dtype=np.float64)
        partial = float(np.sum(grid ** -3.0))
        assert abs(mzv(idx(3)).value - partial) < 1.0 / n_max ** 2

    def test_empty_index(self):
        v = mzv(idx())
        assert v.value == 1.0 and v.error_bound == 0.0

    def test_non_admissible_rejected(self):
        with pytest.raises(DomainError):
            mzv(idx(2, 1))

    def test_tolerance_floor(self):
        for tol in (1e-13, float("nan")):
            with pytest.raises(DomainError):
                mzv(idx(2), tol)

    def test_deep_index_escalates_past_an_uncertified_tier(self):
        # at depth 241 the 64-term half-point series of the whole word has no
        # certified tail, and its value 0.0 must not turn the bound into nan
        assert num._limit_with_error((1,) * 240 + (2,), 0)[1] == math.inf
        v = mzv(idx(*(1,) * 240, 2))
        assert v.error_bound <= DEFAULT_MZV_TOL
        # by duality zeta(1^240, 2) = zeta(242), within 2^-241 of 1
        assert abs(v.value - 1.0) <= v.error_bound


    def test_uncertified_index_is_refused_at_infinite_tolerance(self):
        # an infinite bound never meets tol, not even tol = inf, and tol = inf
        # still escalates past a tier whose bound is infinite
        with pytest.raises(CapExceededError):
            mzv(idx(*(1,) * 600, 2), math.inf)
        assert mzv(idx(*(1,) * 240, 2), math.inf) == mzv(idx(*(1,) * 240, 2))


class TestHalfPointConvolution:
    """The 1/2-Hoelder engine against an independent reference and closed forms."""

    indices = [k for k in admissible_indices_up_to(8) if k.parts]

    def test_agrees_with_euler_maclaurin_reference(self):
        assert len(self.indices) == 127
        for k in self.indices:
            reference = float(em.nested_sum_limit(k.parts))
            assert abs(mzv(k, MIN_TOL).value - reference) <= 1e-13, k

    @pytest.mark.parametrize(
        "parts, exact",
        [
            ((2,), lambda: mpmath.pi ** 2 / 6),
            ((1, 2), lambda: mpmath.zeta(3)),
            ((1, 1, 2), lambda: mpmath.zeta(4)),
            *(((2,) * n, lambda n=n: mpmath.pi ** (2 * n) / mpmath.factorial(2 * n + 1)) for n in range(1, 5)),
        ],
    )
    def test_closed_forms_within_the_bound(self, parts, exact):
        v = mzv(idx(*parts), MIN_TOL)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(v.value) - exact()) <= v.error_bound

    def test_bound_is_a_certificate(self):
        # a truncated series must lie within its stated bound of the 64-term
        # one, at every prefix of every word up to weight 8
        for k in indices_up_to_weight(8):
            full = num._half_points(k.parts, 64)
            for terms in (8, 16, 32):
                truncated = num._half_points(k.parts, terms)
                assert len(truncated) == len(full) == k.weight + 1
                for i, ((value, err), (exact, exact_err)) in enumerate(zip(truncated, full)):
                    assert abs(value - exact) <= err + exact_err, (k, i, terms)

    @pytest.mark.parametrize("terms", [64, 128])
    def test_pass_matches_the_per_prefix_series(self, terms):
        # every prefix of every admissible word and of its dual, bit for bit
        for k in admissible_indices_up_to(10):
            letters = word_of_index(k).letters()
            for word in (letters, tuple(1 - x for x in reversed(letters))):
                expected = tuple(half_point_oracle(Word.from_letters(word[:i]), terms) for i in range(len(word) + 1))
                assert num._half_points(index_of_word(Word.from_letters(word)).parts, terms) == expected, (k, word)

    def test_convolution_matches_the_per_prefix_reference(self):
        for k in admissible_indices_up_to(10):
            if k.parts:
                for tier in (0, 1):
                    expected = limit_with_error_oracle(k.parts, num.HALF_POINT_TERMS << tier)
                    assert num._limit_with_error(k.parts, tier) == expected, (k, tier)

    def test_bound_reaches_min_tol_at_tier_zero(self):
        for k in self.indices:
            assert num._limit_with_error(k.parts, 0)[1] <= 1e-13, k


class TestLiValue:
    def test_log_closed_form(self):
        for z in (0.1, 0.3, 0.5, 0.7, 0.9):
            v = li_value(idx(1), z)
            assert abs(v.value + math.log(1 - z)) < 1e-9

    def test_log_squared_closed_form(self):
        for z in (0.2, 0.5, 0.8):
            v = li_value(idx(1, 1), z)
            assert abs(v.value - math.log(1 - z) ** 2 / 2) < 1e-9

    def test_dilogarithm_reference(self):
        v = li_value(idx(2), 0.5)
        assert abs(v.value - float(mpmath.polylog(2, 0.5))) < 1e-9

    def test_small_z_vanishes(self):
        assert li_value(idx(2, 1), 1e-9).value < 1e-8

    def test_monotone_in_z(self):
        values = [li_value(idx(1, 2), z).value for z in (0.2, 0.4, 0.6, 0.8, 0.95)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_approaches_limit_near_one(self):
        target = mzv(idx(2)).value
        gaps = [abs(li_value(idx(2), 1 - 2.0 ** -m).value - target) for m in (4, 6, 8, 10)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < (2.0 ** -10) * 11 * 2  # about (1-z) log(1-z) scale

    def test_empty_index(self):
        assert li_value(idx(), 0.5).value == 1.0

    def test_tolerance_must_be_positive(self):
        for tol in (0.0, float("nan")):
            with pytest.raises(DomainError):
                li_value(idx(2), 0.5, tol)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            li_value(idx(2), 0.0)
        with pytest.raises(DomainError):
            li_value(idx(2), 1.0)
        with pytest.raises(DomainError):
            li_value(idx(2), 0.5, 0.0)


class TestLiCertificate:
    """The error bound of li_value covers the distance to closed forms, at a tight and a loose tol."""

    points = [0.5, 1.0 - 2.0 ** -14, 1.0 - 2.0 ** -20]

    @staticmethod
    def _reference(k, z):
        log = math.log1p(-z)
        if k == (1,):
            return -log
        if k == (1, 1):
            return log ** 2 / 2
        if k == (1, 1, 1):
            return -log ** 3 / 6
        with mpmath.workdps(30):
            return float(mpmath.polylog(k[0], z))

    @pytest.mark.parametrize("tol", [1e-11, 1e-4])
    @pytest.mark.parametrize("k", [(1,), (1, 1), (1, 1, 1), (2,), (3,)], ids=str)
    def test_closed_forms_lie_within_the_bound(self, k, tol):
        for z, v in zip(self.points, li_value(idx(*k), self.points, tol)):
            assert abs(v.value - self._reference(k, z)) <= v.error_bound <= tol, (z, v)


class TestSeriesTail:
    """The tail bound is at least its formula b(lo) / (1 - rho), taken in mpmath, and never 0."""

    zs = [0.5] + [1.0 - 2.0 ** -e for e in range(2, 23)]  # up to the CI's Li schedule, z = 1 - 2^-22
    los = [2, 17, 65, 129, (1 << 14) + 1, (1 << 20) + 1]  # the half-point tails and Li chunk starts

    def test_bound_is_at_least_the_exact_formula(self):
        finite = 0
        with mpmath.workdps(60):
            for q in range(6):
                for last in (1, 2, 3):
                    parts = (1,) * q + (last,)
                    for z, lo in itertools.product(self.zs, self.los):
                        bound = num._series_tail(parts, z, lo)
                        rho = mpmath.mpf(z) * mpmath.exp(q / (lo * (1 + mpmath.log(lo))))
                        if rho >= 1:
                            assert bound == math.inf, (parts, z, lo)
                            continue
                        b = mpmath.mpf(z) ** lo * mpmath.mpf(lo) ** -last * (1 + mpmath.log(lo)) ** q / mpmath.factorial(q)
                        assert 0.0 < bound and mpmath.mpf(bound) >= b / (1 - rho), (parts, z, lo)
                        finite += 1
        assert finite == 1239


class TestLiGrid:
    """A z grid sums the series once, and each point's floats equal those of its own call."""

    campaign_grid = [1.0 - 0.5 ** e for e in range(4, 15)]  # prop-asymp-Li's z grid at the default schedule

    @staticmethod
    def _floats(reals):
        return [(r.value, r.error_bound) for r in reals]

    @pytest.mark.parametrize("k", indices_up_to_weight(4, include_empty=True), ids=str)
    def test_campaign_grid_equals_each_point(self, k):
        grid = li_value(k, self.campaign_grid)
        assert self._floats(grid) == self._floats(li_value(k, z) for z in self.campaign_grid)

    def test_unsorted_repeated_and_one_point_grids(self):
        zs = [0.999, 0.3, 1.0 - 2.0 ** -12, 0.3, 0.75]
        for k in (idx(2), idx(1, 2), idx(3, 1, 1)):
            assert self._floats(li_value(k, zs)) == self._floats(li_value(k, z) for z in zs)
            assert self._floats(li_value(k, (0.9,))) == self._floats([li_value(k, 0.9)])
            assert li_value(k, []) == []
        assert li_value(idx(), zs) == [Real(1.0, 0.0)] * len(zs)

    def test_grid_domain_errors(self):
        for k in (idx(), idx(2)):
            for zs in ([0.5, 1.0], [0.0, 0.5], [0.5, float("nan")], [-0.25], [0.5, 2.0]):
                with pytest.raises(DomainError):
                    li_value(k, zs)

    def test_term_cap_raises_naming_the_point(self, monkeypatch):
        monkeypatch.setattr(num, "LI_TERM_CAP", 1 << 15)
        assert li_value(idx(2), 0.5).value == li_value(idx(2), [0.5])[0].value  # within the cap
        z = 1.0 - 2.0 ** -14  # needs 8 chunks of 2^14 terms at the default tol
        for arg in (z, [0.5, z, 0.25]):
            with pytest.raises(CapExceededError, match=rf"z={z!r} .* within 49152 terms"):
                li_value(idx(2), arg)


class TestLiBatch:
    """One pass of the series for a set of indices gives each index the Reals of its own li_value call."""

    campaign_grid = TestLiGrid.campaign_grid
    wide_grid = [1.0 - 0.5 ** e for e in range(4, 17)]  # out to z = 1 - 2^-16

    @staticmethod
    def _floats(reals):
        return [(r.value, r.error_bound) for r in reals]

    @pytest.mark.parametrize(
        "weight, zs", [(4, campaign_grid), (2, wide_grid)], ids=["w4-campaign-grid", "w2-to-1-2^-16"]
    )
    def test_every_index_gets_the_floats_of_its_own_call(self, weight, zs):
        indices = indices_up_to_weight(weight, include_empty=True)
        batch = num._li_series([k.parts for k in indices], zs, LI_TOL)
        assert list(batch) == [k.parts for k in indices]
        for k in indices:
            assert self._floats(batch[k.parts]) == self._floats(li_value(k, zs, LI_TOL)), k

    def test_a_capped_index_fails_alone(self, monkeypatch):
        # at z = 1 - 2^-14, (1,1,1,1) sums 29 chunks of 2^14 terms, and (1,1,1), (1,2,1) and (2,1,1) 28:
        # under this cap it fails after its 28th chunk, in the one where they stop, and it is summed first
        indices = [(1, 1, 1, 1)] + [k.parts for k in indices_up_to_weight(4, include_empty=True)]
        free = num._li_series(indices, self.campaign_grid, LI_TOL)
        monkeypatch.setattr(num, "LI_TERM_CAP", (28 << 14) - 1)
        capped = num._li_series(indices, self.campaign_grid, LI_TOL)
        with pytest.raises(CapExceededError) as own:
            li_value(idx(1, 1, 1, 1), self.campaign_grid, LI_TOL)
        error = capped.pop((1, 1, 1, 1))
        assert isinstance(error, CapExceededError) and str(error) == str(own.value)
        assert str(error).startswith("series for z=0.99993896484375 ")
        assert capped == {parts: free[parts] for parts in capped}


class TestEulerGamma:
    def test_documented_value(self):
        assert abs(euler_gamma().value - 0.5772156649015329) < 1e-15

    def test_euler_maclaurin_cross_check(self):
        n = 10 ** 6
        approx = harmonic_number_f(n) - math.log(n) - 1 / (2 * n) + 1 / (12 * n ** 2)
        assert abs(approx - euler_gamma().value) < 1e-10

    def test_h10_example(self):
        gap = harmonic_number_f(10) - math.log(10) - euler_gamma().value
        # leading terms 1/(2*10) - 1/(12*100) = 0.0491666...
        assert abs(gap - 0.0491667) < 1e-5
        assert gap < 1 / 20 + 1e-3

    def test_limit_property(self):
        gaps = [abs(harmonic_number_f(n) - math.log(n) - EULER_GAMMA) for n in (10, 100, 1000, 10000)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_in_place_reciprocals_give_the_floats_of_a_second_array(self):
        for n in (1, 2, 10, 10 ** 5 - 1, 10 ** 6 - 1):
            assert harmonic_number_f(n) == float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64))), n

    def test_blocked_sum_gives_the_float_of_one_full_array(self):
        for n in (2 ** 16 + 1, 3 * 10 ** 6 + 17):
            assert harmonic_number_f(n) == float(np.sum(1.0 / np.arange(1, n + 1, dtype=np.float64))), n

    def test_sentinel_runs_in_bounded_memory(self):
        tracemalloc.start()
        try:
            harmonic_number_f(10 ** 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak


class TestPairwiseSum:
    """``_pairwise_sum`` follows numpy's own pairwise tree, so a numpy that changes it fails here."""

    @pytest.mark.parametrize(
        "n",
        [0, 1, 7, 8, 9, 127, 128, 129, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1, 2 ** 17 + 13, 3 * 2 ** 16 + 5, 10 ** 6 - 1],
    )
    def test_equals_numpy_sum_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
        assert num._pairwise_sum(lambda lo, hi: a[lo:hi], len(a)) == float(np.sum(a))


class TestEvalRegPolynomial:
    def test_plain_t(self):
        p = RegPolynomial.monomial(LinComb.unit(), 1)
        assert eval_reg_polynomial(p, 3.0).value == 3.0

    def test_constant_coefficient_at_zero(self):
        p = z_star_polynomial(idx(1, 1))  # T^2/2 - e_(2)/2
        v = eval_reg_polynomial(p, 0.0)
        assert abs(v.value + math.pi ** 2 / 12) < 1e-9

    def test_degree_zero(self):
        p = RegPolynomial.constant(LinComb.of_index(idx(2)))
        for t in (0.0, 2.5):
            assert abs(eval_reg_polynomial(p, t).value - math.pi ** 2 / 6) < 1e-9

    def test_linearity_in_coefficients(self):
        p = RegPolynomial.constant(LinComb.of_index(idx(2)))
        q = RegPolynomial.constant(3 * LinComb.of_index(idx(2)))
        assert abs(3 * eval_reg_polynomial(p, 1.0).value - eval_reg_polynomial(q, 1.0).value) < 1e-9

    def test_h1_coefficient_rejected(self):
        p = RegPolynomial.constant(LinComb.of_index(idx(1)))
        with pytest.raises(DomainError):
            eval_reg_polynomial(p, 1.0)

    def test_bound_is_a_certificate_on_the_campaign_grids(self):
        # prop-asymp-H's star polynomials at log N + gamma and prop-asymp-Li's
        # shuffle polynomials at -log(1 - z), N = 2^e and z = 1 - 2^-e for
        # e = 4..14: the float sum and the MZVs' own bounds lie within the
        # bound of the exact sum of the same MZV floats
        grids = (
            (z_star_polynomial, [math.log(1 << e) + euler_gamma().value for e in range(4, 15)]),
            (z_shuffle_polynomial, [-math.log1p(-(1.0 - 0.5 ** e)) for e in range(4, 15)]),
        )
        zetas = {}
        count = 0
        for k in indices_up_to_weight(6, include_empty=True):
            for polynomial, ts in grids:
                p = polynomial(k)
                for t in ts:
                    got = eval_reg_polynomial(p, t, zetas)
                    exact = mzv_part = Fraction(0)
                    for i, c in enumerate(p.coeffs):
                        power = Fraction(t) ** i
                        for w, q in c.items():
                            exact += q * Fraction(zetas[w].value) * power
                            mzv_part += abs(q) * Fraction(zetas[w].error_bound) * abs(power)
                    assert abs(Fraction(got.value) - exact) + mzv_part <= Fraction(got.error_bound), (k, t)
                    count += 1
        assert count == 1408

    def test_memo_is_read_and_filled(self):
        zetas = {}
        p = z_star_polynomial(idx(1, 2))
        first = eval_reg_polynomial(p, 2.5, zetas)
        assert set(zetas) == {w for c in p.coeffs for w in c.support()}
        zetas = {w: Real(2 * z.value, z.error_bound) for w, z in zetas.items()}
        assert eval_reg_polynomial(p, 2.5, zetas).value == 2 * first.value


class TestRateFit:
    schedule = [2 ** e for e in range(4, 15)]

    def test_recovers_planted_exponents(self):
        for a in (0, 1, 2, 3):
            obs = [(n, 2.5 * math.log(n) ** a / n) for n in self.schedule]
            fit = fit_log_rate(obs)
            assert fit.ok and fit.fitted_log_exponent == a
            assert abs(fit.bounded_constant - 2.5) < 0.3

    def test_constant_residuals_fail(self):
        fit = fit_log_rate([(n, 1.0) for n in self.schedule])
        assert not fit.ok and fit.fitted_log_exponent is None

    def test_zero_residuals_pass(self):
        fit = fit_log_rate([(n, 0.0) for n in self.schedule])
        assert fit.ok and fit.fitted_log_exponent == 0 and fit.bounded_constant == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            fit_log_rate([(16, 1.0), (32, 0.5)])
        with pytest.raises(DomainError):
            fit_log_rate([(16, 1.0), (8, 0.5), (32, 1.0), (64, 1.0), (128, 1.0)])
        with pytest.raises(DomainError):
            fit_log_rate([(n, float("nan")) for n in self.schedule])

    def test_serialization(self):
        fit = fit_log_rate([(n, 1.0 / n) for n in self.schedule])
        data = fit.to_dict()
        assert data["fittedLogExponent"] == 0 and data["ok"]


class TestFloatTwins:
    def test_match_exact_values(self):
        for k in (idx(1), idx(2), idx(1, 2), idx(2, 1, 1)):
            for n in (2, 5, 17, 40):
                assert abs(zeta_lt_f(k, n) - float(zeta_lt(k, n))) < 1e-12
                assert abs(zeta_flat_f(k, n) - float(zeta_flat(k, n))) < 1e-12
                assert abs(zeta_natural_f(k, n) - float(zeta_natural(k, n))) < 1e-12

    def test_r_float_matches_exact(self):
        args = RArgs.parse("2,1;0,0")
        for n in (5, 12, 30):
            assert abs(r_value_f(args, n) - float(r_value(args, n))) < 1e-12

    def test_unknown_variant_rejected(self):
        with pytest.raises(DomainError):
            zn_apply_f(LinComb(), 5, "fancy")
        with pytest.raises(DomainError):
            zn_apply_f(LinComb.of_index(idx(2)), 5, "fancy")

    @given(
        st.tuples(st.lists(st.integers(1, 3), max_size=3), st.lists(st.integers(1, 3), max_size=3)).filter(
            lambda pq: sum(pq[0]) + sum(pq[1]) <= 7
        ),
        st.sampled_from(["harmonic", "shuffle"]),
        st.sampled_from(["plain", "flat", "natural"]),
        st.one_of(st.integers(1, 400), st.just(4096)),
    )
    @example(([1, 2], [2, 1]), "shuffle", "natural", 4096)
    @example(([1], [2]), "harmonic", "plain", 1)
    @settings(max_examples=80, deadline=None)
    def test_walk_matches_one_chain_at_a_time_bit_for_bit(self, pq, op, variant, n):
        p, q = pq
        x, y = LinComb.of_index(Index(tuple(p))), LinComb.of_index(Index(tuple(q)))
        product = (harmonic if op == "harmonic" else shuffle)(x, y)
        num._word_value_f.cache_clear()  # every word through the walk, none from an earlier example
        chain_of = variant_chain(variant)
        expected = sum(float(c) * chain_value_f_oracle(chain_of(index_of_word(w)), n) for w, c in product.items())
        assert zn_apply_f(product, n, variant) == expected
        assert zn_apply_f(product, n, variant) == expected  # now every word from the memo

    # every prefix of chains of each kind: flat (mixed relations), natural, plain, and one with (N - n)^-a n^-b weights
    WALK_CHAINS = sorted(
        {
            chain.steps[:i]
            for chain in (
                ConstraintChain.flat(idx(1, 2, 1)),
                ConstraintChain.flat(idx(2, 1, 1)),
                ConstraintChain.natural(idx(1, 2)),
                ConstraintChain.plain(idx(3, 1, 2)),
                ConstraintChain.plain(idx(1, 1, 1)),
                ConstraintChain.from_rargs(RArgs.parse("2,1;1,3")),
            )
            for i in range(1, chain.length + 1)
        }
    )

    # a walk of two chains whose shared prefix e1 e1 has both as children, which sums that prefix's
    # row in place, then that prefix asked for on its own, which walks it afresh
    EXTENDED_FIRST = [
        ConstraintChain.flat(idx(1, 2, 1)).steps[:3],
        ConstraintChain.natural(idx(1, 2)).steps,
        ConstraintChain.natural(idx(1, 2)).steps[:2],
    ]

    @given(
        st.permutations(WALK_CHAINS),
        st.lists(st.integers(1, 8), min_size=1, max_size=4),
        st.sampled_from([1, 2, 9, 300]),
    )
    @example(EXTENDED_FIRST + sorted(set(WALK_CHAINS) - set(EXTENDED_FIRST)), [2, 1], 300)
    @settings(max_examples=40, deadline=None)
    def test_walk_in_any_order_matches_each_chain_alone_bit_for_bit(self, order, sizes, n):
        """Batches of the chains in turn through :meth:`ChainWalk.walk` and one by one through :meth:`ChainWalk.value`."""
        floats = ChainWalk(num.FloatRows((n,), num._exponents(order)))
        exact = ChainWalk(fs.IntegerRows(n))
        start = 0
        for i, size in enumerate(itertools.cycle(sizes)):
            batch = order[start : start + size]
            if not batch:
                break
            start += size
            if i % 2 == 0:
                floats.walk(batch)
                exact.walk(batch)
            for steps in batch:
                chain = ConstraintChain(steps)
                assert floats.value(steps) == (chain_value_f_oracle(chain, n),), steps
                assert exact.value(steps) == fs.evaluate_chain(chain, n), steps

    def test_a_first_steps_running_sums_die_at_its_last_child(self):
        """A first step's running sums, an array of their own, are dropped once its last child's row is formed."""
        x, y = LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2, 1))
        defect = harmonic(x, y) - shuffle(x, y)
        chains = {variant_chain(v)(index_of_word(w)).steps for w in defect.support() for v in ("plain", "natural")}
        chains |= {steps[:1] for steps in chains}
        last_child: dict = {}
        for steps in chains:
            if len(steps) > 1:
                last_child[steps[0]] = max(last_child.get(steps[0], steps[1]), steps[1])
        first_sums, under_last, kept = [], [], []

        class Watching(num.FloatRows):
            def cumulate(self, values, level):
                sums = super().cumulate(values, level)
                if level == 0:
                    first_sums.append(weakref.ref(sums))
                return sums

            def total(self, values, steps):
                if len(steps) > 1 and steps[1] == last_child[steps[0]]:
                    under_last.append(steps)
                    if any(ref() is not None for ref in first_sums):
                        kept.append(steps)
                return super().total(values, steps)

        walk = ChainWalk(Watching((4096,), num._exponents(chains)))
        walk.walk(chains)
        assert len(first_sums) > 1 and under_last  # first steps with more than one child, and chains under them
        assert kept == []
        assert walk.sums == {steps: (chain_value_f_oracle(ConstraintChain(steps), 4096),) for steps in chains}

    def test_memo_keeps_variants_apart(self):
        x = LinComb.of_index(idx(2))
        values = {v: zn_apply_f(x, 5, v) for v in ("plain", "flat", "natural")}
        assert values == {v: chain_value_f_oracle(variant_chain(v)(idx(2)), 5) for v in values}
        assert values["flat"] != values["natural"]  # 205/144 and 85/144
        assert {v: zn_apply_f(x, 5, v) for v in values} == values

    def test_n_one(self):
        for variant in ("plain", "flat", "natural"):
            assert zn_apply_f(LinComb.of_index(idx(1, 2)), 1, variant) == 0.0
            assert zn_apply_f(LinComb.unit(), 1, variant) == 1.0

    def test_real_type_validation(self):
        with pytest.raises(ValueError):
            Real(1.0, -1.0)
        assert float(Real(2.0, 0.1)) == 2.0
        assert Real(2.0, 0.1).serialize() == {"value": "2.0", "errorBound": "0.1"}


class TestNGrid:
    """zn_apply_f over an N grid equals its scalar calls and reads and fills the same memo."""

    @staticmethod
    def _fresh(x, n, variant):
        num._word_value_f.cache_clear()
        return zn_apply_f(x, n, variant)

    @given(
        st.tuples(st.lists(st.integers(1, 3), max_size=3), st.lists(st.integers(1, 3), max_size=3)).filter(
            lambda pq: sum(pq[0]) + sum(pq[1]) <= 6
        ),
        st.sampled_from(["harmonic", "shuffle", "defect"]),
        st.sampled_from(["plain", "flat", "natural"]),
        st.lists(st.one_of(st.integers(1, 300), st.sampled_from([1, 2, 1024])), max_size=6),
    )
    @example(([1], [2]), "defect", "plain", [1, 2, 2, 1024, 16, 1])
    @example(([1, 2], [2]), "defect", "natural", [300, 2, 1, 300])
    @settings(max_examples=60, deadline=None)
    def test_grid_equals_scalar_calls_in_a_fresh_memo(self, pq, op, variant, ns):
        x, y = (LinComb.of_index(Index(tuple(p))) for p in pq)
        products = {"harmonic": harmonic, "shuffle": shuffle, "defect": lambda x, y: harmonic(x, y) - shuffle(x, y)}
        product = products[op](x, y)
        expected = [self._fresh(product, n, variant) for n in ns]
        num._word_value_f.cache_clear()
        assert zn_apply_f(product, ns, variant) == expected
        assert zn_apply_f(product, tuple(ns), variant) == expected  # now every word from the memo

    def test_grid_and_scalar_calls_share_the_memo(self):
        x = harmonic(LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2)))
        ns = [16, 64, 3, 1024, 2]
        for variant in ("plain", "flat", "natural"):
            fresh = [self._fresh(x, n, variant) for n in ns]
            num._word_value_f.cache_clear()
            assert [zn_apply_f(x, n, variant) for n in ns[::2]] == fresh[::2]
            assert zn_apply_f(x, ns, variant) == fresh  # a grid after scalar calls at some of its N
            num._word_value_f.cache_clear()
            zn_apply_f(x, ns[1:], variant)
            assert [zn_apply_f(x, n, variant) for n in ns] == fresh  # scalar calls after a grid

    def test_each_unseen_word_is_walked_once(self, monkeypatch):
        walked = []

        class Counting(num.FloatRows):
            def total(self, values, steps):
                walked.append((steps, self.ns[-1]))
                return super().total(values, steps)

        monkeypatch.setattr(num, "FloatRows", Counting)
        x = shuffle(LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2, 1)))
        plain = sorted(ConstraintChain.plain(index_of_word(w)).steps for w, _ in x.items())
        num._word_value_f.cache_clear()
        zn_apply_f(x, 64, "plain")
        walked.clear()
        zn_apply_f(x, [16, 256, 64, 16], "plain")  # each word unseen at 16 and 256: one walk at 256
        assert sorted(walked) == [(steps, 256) for steps in plain]
        walked.clear()
        zn_apply_f(x, [256, 16], "plain")
        zn_apply_f(x, 64, "plain")
        assert walked == []  # known at every N of the grid
        extra = LinComb.of_index(idx(3))
        zn_apply_f(x + extra, [16, 64], "plain")
        assert walked == [(ConstraintChain.plain(idx(3)).steps, 64)]  # only the unseen word
        walked.clear()
        zn_apply_f(extra, [16, 32, 16], "flat")  # one walk per N for flat and natural chains
        assert walked == [(ConstraintChain.flat(idx(3)).steps, 16), (ConstraintChain.flat(idx(3)).steps, 32)]

    def test_walk_words_f_walks_a_word_set_once_per_grid(self, monkeypatch):
        built = []

        class Counting(num.FloatRows):
            def __init__(self, ns, exponents):
                built.append(tuple(ns))
                super().__init__(ns, exponents)

        x, y = LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2, 1))
        combos = (x, y, shuffle(x, y), harmonic(x, y) - shuffle(x, y))
        words = {w for z in combos for w in z.support()}
        ns = [16, 256, 64]
        expected = {v: [self._fresh(z, ns, v) for z in combos] for v in ("plain", "natural")}
        monkeypatch.setattr(num, "FloatRows", Counting)
        for variant, walks in (("plain", [(16, 64, 256)]), ("natural", [(16,), (64,), (256,)])):
            num._word_value_f.cache_clear()
            built.clear()
            num.walk_words_f(words, ns, variant)
            assert built == walks, variant  # plain chains: one walk at the largest N
            assert [zn_apply_f(z, ns, variant) for z in combos] == expected[variant], variant
            assert built == walks, variant  # every word read from the tables
        with pytest.raises(DomainError):
            num.walk_words_f(words, ns, "fancy")

    def test_known_words_build_no_chain(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a word known at every N had its chain built or walked")

        x, y = LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2, 1))
        combos = (x, y, shuffle(x, y), harmonic(x, y) - shuffle(x, y))
        words = {w for z in combos for w in z.support()}
        ns = [16, 256, 64]
        for variant in ("plain", "natural"):
            expected = [self._fresh(z, ns, variant) for z in combos]
            num._word_value_f.cache_clear()
            tables = num.walk_words_f(words, ns, variant)
            assert tables == [num._word_value_f(n, variant) for n in ns]
            with monkeypatch.context() as m:
                m.setattr(num, "index_of_word", refuse)
                m.setitem(fs.VARIANTS, variant, refuse)
                m.setattr(num, "FloatRows", refuse)
                assert [zn_apply_f(z, ns, variant) for z in combos] == expected, variant
                assert [zn_apply_f(z, ns[1], variant) for z in combos] == [v[1] for v in expected], variant

    def test_grid_validation(self):
        x = LinComb.of_index(idx(2))
        assert zn_apply_f(x, [], "plain") == [] and zn_apply_f(x, [], "flat") == []
        for ns in ([0], [4, 0, 8], [-1]):
            with pytest.raises(DomainError):
                zn_apply_f(x, ns, "plain")
        with pytest.raises(DomainError):
            zn_apply_f(x, [4, 8], "fancy")


class TestInversePowerTable:
    """The weight rows are views of one shared table per exponent, which every
    walk grows and trims; the floats must not depend on the table's history."""

    @staticmethod
    def _check(x, n, variant):
        chain_of = variant_chain(variant)
        chains = [chain_of(index_of_word(w)) for w, _ in x.items()]
        num._word_value_f.cache_clear()  # every word through the walk
        assert zn_apply_f(x, n, variant) == sum(
            float(c) * chain_value_f_oracle(chain, n) for (_, c), chain in zip(x.items(), chains)
        )
        wanted = {e for chain in chains for step in chain.steps for e in (step.a, step.b) if e}
        assert set(num._INVERSE_POWERS) <= wanted  # trimmed to this walk's exponents
        assert all(len(num._INVERSE_POWERS.get(e, ())) >= n - 1 for e in wanted)

    def test_grow_trim_and_regrow_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(num, "_INVERSE_POWERS", {})
        x = LinComb.of_index(idx(1, 2))
        combos = [
            x,
            LinComb.of_index(idx(3)),
            harmonic(x, LinComb.of_index(idx(2, 1))),
            shuffle(LinComb.of_index(idx(4)), LinComb.of_index(idx(1))),
            LinComb.of_index(idx(2, 1, 3)),
        ]
        variants = ("plain", "flat", "natural")
        schedule = [16 << i for i in range(7)] + [100, 23, 3000]  # doubling, then smaller and larger
        for i, n in enumerate(schedule):
            self._check(combos[i % len(combos)], n, variants[i % len(variants)])

    def test_n_one_and_two(self, monkeypatch):
        monkeypatch.setattr(num, "_INVERSE_POWERS", {})
        x = harmonic(LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(3)))
        for n in (1, 2, 1, 50, 2, 1):
            for variant in ("plain", "flat", "natural"):
                self._check(x, n, variant)

    def test_walk_outlives_a_later_trim(self):
        chain = ConstraintChain.from_rargs(RArgs.parse("2,1;1,3"))
        walk = ChainWalk(num.FloatRows((300,), {1, 2, 3}))
        assert zeta_lt_f(idx(5), 1000) == chain_value_f_oracle(ConstraintChain.plain(idx(5)), 1000)
        assert set(num._INVERSE_POWERS) == {5}  # the tables of the earlier walk are gone
        assert walk.value(chain.steps) == (chain_value_f_oracle(chain, 300),)  # one sum per N of the grid
        assert chain_value_f(chain, 300) == chain_value_f_oracle(chain, 300)

    def test_table_slices_are_read_only(self):
        rows = num.FloatRows((10,), {1, 2})
        for row in (rows.weights(0, 1), rows.weights(2, 0), num._INVERSE_POWERS[1]):
            with pytest.raises(ValueError):
                row[0] = 1.0
        product = rows.weights(1, 2)  # a product of two views is a fresh row
        assert product[0] == 9.0 ** -1 * 1.0 and product.flags.writeable
