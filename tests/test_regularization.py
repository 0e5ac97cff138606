import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzvkit.algebra as algebra
import mzvkit.regularization as reg
from mzvkit.algebra import EMPTY_WORD, Index, LinComb, Word, harmonic, shuffle, word_of_index
from mzvkit.errors import DomainError
from mzvkit.numeric import mzv, zeta_lt_f
from mzvkit.regularization import (
    RegPolynomial,
    poly_mul,
    reconstruct,
    reg_shuffle,
    reg_star,
    shuffle_decompose,
    star_decompose,
    z_shuffle_polynomial,
    z_star_polynomial,
)
from mzvkit.verification import CampaignConfig, verify_edsr

from _oracles import comb_from_parts, decompose_oracle, quasi_shuffle_oracle


def idx(*parts):
    return Index(tuple(parts))


def comb(*parts):
    return LinComb.of_index(idx(*parts))


small_indices = st.builds(
    lambda parts: Index(tuple(parts)),
    st.lists(st.integers(1, 4), max_size=4).filter(lambda ps: sum(ps) <= 6),
)
h1_combs = st.builds(
    lambda pairs: LinComb((word_of_index(k), Fraction(c)) for k, c in pairs),
    st.lists(st.tuples(small_indices, st.integers(-3, 3)), max_size=3),
)
# longer trailing-e1 runs and rational coefficients with unlike denominators
rational_h1_combs = st.builds(
    lambda pairs: LinComb((word_of_index(k), c) for k, c in pairs),
    st.lists(
        st.tuples(
            st.builds(
                lambda parts: Index(tuple(parts)),
                st.lists(st.integers(1, 3), max_size=6).filter(lambda ps: sum(ps) <= 8),
            ),
            st.fractions(min_value=-4, max_value=4, max_denominator=12),
        ),
        max_size=5,
    ),
)


def random_h1_comb(rng: random.Random, max_weight: int) -> LinComb:
    terms = []
    for _ in range(rng.randint(1, 3)):
        weight = rng.randint(0, max_weight)
        parts = []
        while weight:
            part = rng.randint(1, weight)
            parts.append(part)
            weight -= part
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((word_of_index(idx(*parts)), coeff))
    return LinComb(terms)


class TestPolynomialType:
    def test_trailing_zero_coefficients_trimmed(self):
        p = RegPolynomial((comb(2), LinComb.zero(), LinComb.zero()))
        assert p.degree == 0

    def test_zero_polynomial(self):
        assert RegPolynomial.zero().is_zero
        assert RegPolynomial.zero().degree == 0

    def test_serialize(self):
        p = z_star_polynomial(idx(1, 1))
        data = p.serialize()
        assert data[0][0] == 0 and data[2][0] == 2
        assert data[0][1] == [("-1/2", "10")]


class TestStarDecomposition:
    def test_identity_on_h0(self):
        assert star_decompose(comb(2)) == RegPolynomial.constant(comb(2))

    def test_double_one(self):
        expected = RegPolynomial((Fraction(-1, 2) * comb(2), LinComb.zero(), Fraction(1, 2) * LinComb.unit()))
        assert star_decompose(comb(1, 1)) == expected

    def test_two_one(self):
        expected = RegPolynomial((-comb(1, 2) - comb(3), comb(2)))
        assert star_decompose(comb(2, 1)) == expected

    def test_z_star_polynomial_single_one_is_t(self):
        assert z_star_polynomial(idx(1)) == RegPolynomial.monomial(LinComb.unit(), 1)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            star_decompose(LinComb.of_word(Word.parse("01")))


class TestShuffleDecomposition:
    def test_double_one(self):
        assert shuffle_decompose(comb(1, 1)) == RegPolynomial.monomial(Fraction(1, 2) * LinComb.unit(), 2)

    def test_two_one(self):
        assert shuffle_decompose(comb(2, 1)) == RegPolynomial((-2 * comb(1, 2), comb(2)))

    def test_identity_on_h0(self):
        x = comb(3) - 2 * comb(1, 2)
        assert shuffle_decompose(x) == RegPolynomial.constant(x)

    def test_admissible_polynomial_is_constant(self):
        assert z_shuffle_polynomial(idx(2)) == RegPolynomial.constant(comb(2))


class TestRegularizationMaps:
    def test_reg_star_examples(self):
        assert reg_star(comb(1)) == LinComb.zero()
        assert reg_star(comb(3)) == comb(3)
        d = harmonic(comb(1), comb(2)) - shuffle(comb(1), comb(2))
        assert reg_star(d) == comb(3) - comb(1, 2)

    def test_reg_shuffle_examples(self):
        assert reg_shuffle(comb(1)) == LinComb.zero()
        assert reg_shuffle(comb(2)) == comb(2)
        assert reg_shuffle(comb(2, 1)) == -2 * comb(1, 2)

    def test_idempotent_on_h0(self):
        x = 3 * comb(2, 2) - comb(4)
        assert reg_star(x) == x
        assert reg_shuffle(x) == x


class TestDecompositionLaws:
    @given(h1_combs)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_star(self, x):
        assert reconstruct(star_decompose(x), "harmonic") == x

    @given(h1_combs)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_shuffle(self, x):
        assert reconstruct(shuffle_decompose(x), "shuffle") == x

    @given(small_indices)
    @settings(max_examples=30, deadline=None)
    def test_degree_equals_trailing_count(self, k):
        w = word_of_index(k)
        assert star_decompose(LinComb.of_word(w)).degree == w.trailing_e1_count()
        assert shuffle_decompose(LinComb.of_word(w)).degree == w.trailing_e1_count()

    @given(small_indices)
    @settings(max_examples=30, deadline=None)
    def test_coefficients_supported_in_h0(self, k):
        for decompose in (star_decompose, shuffle_decompose):
            for c in decompose(LinComb.of_index(k)).coeffs:
                assert c.in_h0

    def test_homomorphism_both_products(self):
        rng = random.Random(7)
        for _ in range(25):
            x = random_h1_comb(rng, 4)
            y = random_h1_comb(rng, 4)
            assert star_decompose(harmonic(x, y)) == poly_mul(
                star_decompose(x), star_decompose(y), harmonic
            )
            assert shuffle_decompose(shuffle(x, y)) == poly_mul(
                shuffle_decompose(x), shuffle_decompose(y), shuffle
            )


def h1_words(max_length: int):
    yield EMPTY_WORD
    for length in range(1, max_length + 1):
        for bits in range(1 << (length - 1)):
            yield Word(bits | 1 << (length - 1), length)


class TestClosedFormsMatchRecursion:
    """The closed forms against the recursive elimination in ``_oracles``."""

    def test_every_h1_word_up_to_length_ten(self):
        for w in h1_words(10):
            x = LinComb.of_word(w)
            assert star_decompose(x) == decompose_oracle(x, "harmonic"), w
            assert shuffle_decompose(x) == decompose_oracle(x, "shuffle"), w

    @given(rational_h1_combs)
    @settings(max_examples=60, deadline=None)
    def test_combinations(self, x):
        star = star_decompose(x)
        sh = shuffle_decompose(x)
        assert star == decompose_oracle(x, "harmonic")
        assert sh == decompose_oracle(x, "shuffle")
        assert reg_star(x) == star.coeff(0)
        assert reg_shuffle(x) == sh.coeff(0)

    def test_zero(self):
        assert star_decompose(LinComb.zero()).is_zero and shuffle_decompose(LinComb.zero()).is_zero
        assert reg_star(LinComb.zero()) == LinComb.zero() == reg_shuffle(LinComb.zero())

    def test_reg_requires_h1(self):
        x = LinComb.of_word(Word.parse("01"))
        for fn in (reg_star, reg_shuffle):
            with pytest.raises(DomainError):
                fn(x)


@pytest.fixture
def cold_word_caches():
    """Empty the per-word caches before and after, so that the test computes
    every word itself and leaves nothing it computed to later tests."""
    reg._star_word.cache_clear()
    reg._shuffle_word.cache_clear()
    yield
    reg._star_word.cache_clear()
    reg._shuffle_word.cache_clear()


def _raiser(*args, **kwargs):
    raise AssertionError("this regularization must not call the other product")


def _defects():
    # EDSR-style defects with trailing e1 runs up to 3
    out = []
    for k in ((1,), (1, 1), (2, 1), (1, 1, 1), (1, 2, 1, 1)):
        for l in ((2,), (1, 2), (3,)):
            x, y = LinComb.of_index(Index(k)), LinComb.of_index(Index(l))
            out.append(harmonic(x, y) - shuffle(x, y))
    return out


@pytest.mark.usefixtures("cold_word_caches")
class TestIndependence:
    """Neither regularization is derived from the other product."""

    def test_star_side_never_shuffles(self, monkeypatch):
        defects = _defects()
        expected = [decompose_oracle(x, "harmonic") for x in defects]
        monkeypatch.setattr(algebra, "shuffle", _raiser)  # regularization binds no shuffle
        for module in (algebra, reg):
            monkeypatch.setattr(module, "_shuffle_words", _raiser)
        for x, poly in zip(defects, expected):
            assert star_decompose(x) == poly
            assert reg_star(x) == poly.coeff(0)

    def test_shuffle_side_never_takes_harmonic_products(self, monkeypatch):
        defects = _defects()
        expected = [decompose_oracle(x, "shuffle") for x in defects]
        for module in (algebra, reg):
            monkeypatch.setattr(module, "harmonic", _raiser)
            monkeypatch.setattr(module, "_harmonic_parts", _raiser)
        for x, poly in zip(defects, expected):
            assert shuffle_decompose(x) == poly
            assert reg_shuffle(x) == poly.coeff(0)


@pytest.mark.usefixtures("cold_word_caches")
def test_harmonic_side_builds_no_index(monkeypatch):
    """Products and star decompositions read the word table directly, never through an ``Index``."""
    pairs = [(idx(*k), idx(*l)) for k in ((1, 1), (2, 1, 1)) for l in ((2,), (1, 2))]
    operands = [(LinComb.of_index(k), LinComb.of_index(l)) for k, l in pairs]
    products = [comb_from_parts(quasi_shuffle_oracle(k.parts, l.parts)) for k, l in pairs]
    defects = _defects()
    expected = [decompose_oracle(x, "harmonic") for x in defects]
    algebra._harmonic_parts.cache_clear()

    def refuse(self):
        raise AssertionError("an Index was built")

    monkeypatch.setattr(Index, "__post_init__", refuse)
    for (x, y), product in zip(operands, products):
        assert harmonic(x, y) == product
    for x, poly in zip(defects, expected):
        assert star_decompose(x) == poly


def _asked(monkeypatch, name: str) -> list[Word]:
    """Record every word the per-word cache ``name`` is asked for, recursive calls included."""
    original = getattr(reg, name)
    asked = []

    def word(w):
        asked.append(w)
        return original(w)

    monkeypatch.setattr(reg, name, word)
    return asked


@pytest.mark.usefixtures("cold_word_caches")
class TestColdWordMemo:
    """The per-word caches hold reg of the word alone, and a reg asks them
    for no word shorter than those of its argument."""

    def test_reg_shuffle_asks_only_for_the_words_of_x(self, monkeypatch):
        asked = _asked(monkeypatch, "_shuffle_word")
        for x in _defects():
            asked.clear()
            reg_shuffle(x)
            assert sorted(asked) == sorted(x.support())

    def test_reg_star_asks_only_for_words_of_the_weights_of_x(self, monkeypatch):
        asked = _asked(monkeypatch, "_star_word")
        for x in _defects():
            asked.clear()
            reg_star(x)
            assert {w.length for w in asked} <= {w.length for w in x.support()}

    def test_cached_value_is_n_factorial_and_n_factorial_times_reg(self):
        for w in h1_words(8):
            n = w.trailing_e1_count()
            for name, product in (("_star_word", "harmonic"), ("_shuffle_word", "shuffle")):
                den, row = getattr(reg, name)(w)
                expected = decompose_oracle(LinComb.of_word(w), product).coeff(0)
                assert den == math.factorial(n) and dict(row) == {y: c * den for y, c in expected.items()}, (name, w)


class TestReconstruct:
    """Horner's rule: every product ``reconstruct`` takes is its accumulator times e1."""

    @pytest.mark.parametrize("product, decompose", [("harmonic", star_decompose), ("shuffle", shuffle_decompose)])
    def test_multiplies_only_by_e1(self, monkeypatch, product, decompose):
        xs = _defects() + [comb(1, 1, 1, 1), comb(2, 1, 1, 1, 1)]
        polys = [decompose(x) for x in xs]
        e1 = LinComb.of_word(Word(1, 1))

        def times_e1(x, y):
            assert y == e1
            return harmonic(x, y)

        if product == "harmonic":
            monkeypatch.setattr(reg, "harmonic", times_e1)
        else:  # e1 goes into each word directly: no shuffle product and no table of one
            monkeypatch.setattr(algebra, "shuffle", _raiser)
            for module in (algebra, reg):
                monkeypatch.setattr(module, "_shuffle_words", _raiser)
        for x, poly in zip(xs, polys):
            assert reconstruct(poly, product) == x

    def test_shuffle_side_fills_no_product_table(self):
        e1 = LinComb.of_word(Word(1, 1))
        for x in _defects() + [comb(3, 3, 3, 1, 1, 1), comb(2, 1, 2, 1, 1)]:
            poly = shuffle_decompose(x)
            before = algebra._shuffle_words.cache_info().currsize
            got = reconstruct(poly, "shuffle")
            assert algebra._shuffle_words.cache_info().currsize == before
            horner = poly.coeffs[-1]  # the same Horner steps through the shuffle product
            for c in reversed(poly.coeffs[:-1]):
                horner = shuffle(horner, e1) + c
            assert got == horner == x

    @given(st.lists(st.tuples(st.text("01", max_size=8), st.integers(-3, 3)), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_shuffle_with_e1_inserts_e1_at_every_place(self, terms):
        x = LinComb((Word.parse(w), c) for w, c in terms)
        assert reg._shuffle_e1(x) == shuffle(x, LinComb.of_word(Word(1, 1)))

    def test_unknown_product_is_refused_before_any_product(self, monkeypatch):
        poly = z_star_polynomial(idx(2, 1, 1))
        for name in ("harmonic", "_shuffle_e1"):
            monkeypatch.setattr(reg, name, _raiser)
        with pytest.raises(ValueError, match="unknown product 'fancy'"):
            reconstruct(poly, "fancy")


def _sabotage(monkeypatch, name: str, target: Word) -> None:
    """Add 1 to the first numerator of reg of ``target`` in the per-word cache ``name``."""
    original = getattr(reg, name)

    def word(w):
        den, row = original(w)
        if w == target:
            (y, k), *rest = row
            row = ((y, k + 1), *rest)
        return den, row

    monkeypatch.setattr(reg, name, word)


@pytest.mark.usefixtures("cold_word_caches")
class TestSabotagedNumeratorIsCaught:
    """One wrong numerator fails the matching EDSR claim at the default
    config and breaks the round trip through :func:`reconstruct`."""

    # a word of the defect of w1 = (2,1), w0 = (2), which CampaignConfig() checks
    TARGET = word_of_index(Index((2, 2, 1)))

    @pytest.mark.parametrize(
        "name, claim, decompose, product",
        [
            ("_star_word", "thm-edsr-star", star_decompose, "harmonic"),
            ("_shuffle_word", "thm-edsr-sh", shuffle_decompose, "shuffle"),
        ],
    )
    def test_sabotage(self, monkeypatch, name, claim, decompose, product):
        _sabotage(monkeypatch, name, self.TARGET)
        verdicts = {r.claim_id: r.passed for r in verify_edsr(CampaignConfig())}
        assert verdicts[claim] is False
        assert all(passed for other, passed in verdicts.items() if other != claim)
        x = LinComb.of_word(self.TARGET)
        assert reconstruct(decompose(x), product) != x


def test_constant_polynomial_matches_numeric_limit():
    # for an admissible index the polynomial is the index itself; the truncated
    # evaluation then converges to the numeric limit
    for k in (idx(2), idx(3), idx(1, 2)):
        poly = z_star_polynomial(k)
        assert poly.degree == 0 and poly.coeff(0) == LinComb.of_index(k)
        gap = abs(zeta_lt_f(k, 1 << 12) - mzv(k).value)
        assert gap < 0.01
