import copy
import itertools
import math
import pickle
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzvkit.algebra as algebra
from mzvkit.algebra import (
    EMPTY_WORD,
    Index,
    LinComb,
    Word,
    harmonic,
    index_of_word,
    indices_of_weight,
    indices_up_to_weight,
    shuffle,
    word_of_index,
)
from mzvkit.errors import DomainError

from _oracles import comb_from_letters, comb_from_parts, quasi_shuffle_oracle, shuffle_oracle


def idx(*parts):
    return Index(tuple(parts))


def comb(*parts):
    return LinComb.of_index(idx(*parts))


words = st.builds(Word.from_letters, st.lists(st.sampled_from([0, 1]), max_size=6))
small_indices = st.builds(
    lambda parts: Index(tuple(parts)),
    st.lists(st.integers(1, 4), max_size=4).filter(lambda ps: sum(ps) <= 6),
)
h1_combs = st.builds(
    lambda pairs: LinComb((word_of_index(k), Fraction(c)) for k, c in pairs),
    st.lists(st.tuples(small_indices, st.integers(-3, 3)), max_size=3),
)
# coefficients p/q with mixed signs and denominators up to 12; an empty list is the zero combination
rationals = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))
rational_h1_combs = st.builds(
    lambda pairs: LinComb((word_of_index(k), c) for k, c in pairs),
    st.lists(st.tuples(small_indices, rationals), max_size=3),
)
rational_combs = st.builds(LinComb, st.lists(st.tuples(words, rationals), max_size=3))


def bilinear_oracle(x, y, product_of_words):
    """The sum of cx * cy * (wx times wy) over the terms of x and y, one oracle product per word pair."""
    acc = LinComb.zero()
    for wx, cx in x.items():
        for wy, cy in y.items():
            acc = acc + product_of_words(wx, wy) * (cx * cy)
    return acc


class TestWordsAndIndices:
    def test_word_of_index_examples(self):
        assert str(word_of_index(idx(2))) == "10"
        assert str(word_of_index(idx(1, 2))) == "110"
        assert word_of_index(idx()) == EMPTY_WORD

    def test_index_of_word_examples(self):
        assert index_of_word(Word.parse("10")) == idx(2)
        assert index_of_word(Word.parse("1001")) == idx(3, 1)
        with pytest.raises(DomainError):
            index_of_word(Word.parse("01"))

    @given(small_indices)
    def test_round_trip(self, k):
        assert index_of_word(word_of_index(k)) == k

    def test_membership_predicates(self):
        assert Word.parse("10").in_h0 and Word.parse("10").in_h1
        assert Word.parse("11").in_h1 and not Word.parse("11").in_h0
        assert not Word.parse("01").in_h1
        assert EMPTY_WORD.in_h0 and EMPTY_WORD.in_h1

    def test_admissibility_and_weight(self):
        assert idx().admissible and idx().weight == 0 and idx().depth == 0
        assert idx(1, 2).admissible and idx(1, 2).weight == 3
        assert not idx(2, 1).admissible

    def test_index_validation(self):
        with pytest.raises(DomainError):
            idx(0, 2)

    def test_parsing(self):
        assert Index.parse("1,2") == idx(1, 2)
        assert Index.parse("") == idx()
        assert Word.parse("") == EMPTY_WORD
        with pytest.raises(DomainError):
            Word.parse("102")
        with pytest.raises(DomainError):
            Index.parse("1,x")

    def test_tuple_order_is_length_then_lexicographic(self):
        pool = [Word(bits, length) for length in range(7) for bits in range(1 << length)]
        assert sorted(reversed(pool)) == sorted(pool, key=lambda w: (len(str(w)), str(w)))

    def test_hash_and_equality_follow_bits_and_length(self):
        pool = [Word(bits, length) for length in range(5) for bits in range(1 << length)]
        for u, v in itertools.product(pool, repeat=2):
            assert (u == v) == ((u.bits, u.length) == (v.bits, v.length))
        for w in pool:
            twin = Word.from_letters(w.letters())
            assert twin == w and hash(twin) == hash(w)

    @pytest.mark.parametrize("bits, length", [(4, 2), (-1, 1), (0, -1)])
    def test_invalid_packed_word_is_rejected(self, bits, length):
        with pytest.raises(ValueError):
            Word(bits, length)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))])
    def test_copy_and_pickle_keep_the_word(self, clone):
        for w in (EMPTY_WORD, Word.parse("0110"), Word.parse("1")):
            out = clone(w)
            assert out == w and type(out) is Word and repr(out) == repr(w)
            assert (out.bits, out.length) == (w.bits, w.length)

    def test_composition_count(self):
        # 2^(w-1) compositions of weight w; 63 in total up to weight 6
        assert len(indices_of_weight(4)) == 8
        assert len(indices_up_to_weight(6)) == 63


class TestLinComb:
    def test_zero_coefficients_dropped(self):
        x = LinComb([(Word.parse("10"), Fraction(1)), (Word.parse("10"), Fraction(-1))])
        assert not x and len(x) == 0 and x == LinComb.zero()

    def test_cancelling_terms_leave_no_zero_coefficient(self):
        w, v = Word.parse("10"), Word.parse("110")
        a, b, c = (LinComb.of_word(Word.parse(t)) for t in ("10", "01", "1"))
        x, y = comb(1, 2), comb(2, 1)

        def difference(left, right):
            out = dict(left)
            for key, k in right.items():
                out[key] = out.get(key, 0) - k
            return {key: k for key, k in out.items() if k}

        results = [
            (LinComb([(w, 1), (w, -1), (w, 2)]), LinComb.of_word(w, 2)),
            (LinComb([(w, 1), (v, 3), (w, -1)]), LinComb.of_word(v, 3)),
            ((a + c) + (c * -1 - a * 2), LinComb.of_word(Word.parse("10"), -1)),
            # 10 sh 1 and 01 sh 1 share the word 101
            (
                shuffle(a - b, c),
                comb_from_letters(difference(shuffle_oracle((1, 0), (1,)), shuffle_oracle((0, 1), (1,)))),
            ),
            # (1,2) * (1) and (2,1) * (1) share (1,2,1) and (2,2)
            (
                harmonic(x - y, comb(1)),
                comb_from_parts(difference(quasi_shuffle_oracle((1, 2), (1,)), quasi_shuffle_oracle((2, 1), (1,)))),
            ),
        ]
        for z, expected in results:
            assert z == expected and z
            assert all(isinstance(k, Fraction) and k != 0 for k in z._terms.values())

    def test_serialize_canonical_order(self):
        x = LinComb.of_word(Word.parse("110")) + LinComb.of_word(Word.parse("10"), 2)
        assert x.serialize() == [("2/1", "10"), ("1/1", "110")]

    def test_arithmetic(self):
        x = comb(2)
        assert (x + x) == 2 * x
        assert x - x == LinComb.zero()
        assert Fraction(1, 2) * (2 * x) == x

    @given(h1_combs, h1_combs)
    @settings(max_examples=30, deadline=None)
    def test_items_cache_starts_empty_on_every_constructor(self, x, y):
        x.items()  # fill the operands' caches; no result may inherit them
        y.items()
        made = [
            LinComb(x.items() + y.items()), LinComb.zero(), LinComb.unit(), LinComb.of_word(Word.parse("110")),
            x + y, x - y, -x, 3 * x, Fraction(1, 2) * y, harmonic(x, y), shuffle(x, y),
        ]
        for z in made:
            assert z._items is None
            assert z.items() == tuple(sorted(z._terms.items(), key=lambda it: (len(str(it[0])), str(it[0]))))
            assert z.items() is z.items()


class TestRationalCoefficients:
    """The products add integer numerators over one denominator; they must equal the term-by-term rational sum."""

    @given(rational_h1_combs, rational_h1_combs)
    @settings(max_examples=60, deadline=None)
    def test_harmonic_is_the_bilinear_quasi_shuffle(self, x, y):
        def oracle(a, b):
            return comb_from_parts(quasi_shuffle_oracle(index_of_word(a).parts, index_of_word(b).parts))

        assert harmonic(x, y) == bilinear_oracle(x, y, oracle)

    @given(rational_combs, rational_combs)
    @settings(max_examples=60, deadline=None)
    def test_shuffle_is_the_bilinear_interleaving(self, x, y):
        def oracle(a, b):
            return comb_from_letters(shuffle_oracle(a.letters(), b.letters()))

        assert shuffle(x, y) == bilinear_oracle(x, y, oracle)

    def test_cancellation_and_empty_operands(self):
        a, b, c = (Word.parse(t) for t in ("10", "01", "1"))
        x = LinComb([(a, Fraction(1, 2)), (b, Fraction(-1, 2))])
        y = LinComb.of_word(c, Fraction(2, 3))
        # 10 sh 1 and 01 sh 1 share the word 101, whose coefficient cancels
        partial = shuffle(x, y)
        assert partial == comb_from_letters({(1, 1, 0): 2, (0, 1, 1): -2}) * Fraction(1, 3)
        assert Word.parse("101") not in partial.support()
        # neither product has zero divisors, so a table that sends every pair to one word
        # makes the terms of x cancel in full
        full = algebra._bilinear(x, y, lambda u, v: ((EMPTY_WORD, 1),))
        assert full == LinComb.zero() and not full._terms
        assert all(isinstance(k, Fraction) and k != 0 for k in partial._terms.values())
        z = LinComb([(word_of_index(idx(1, 2)), Fraction(-5, 12)), (word_of_index(idx(3)), Fraction(7, 4))])
        for product in (harmonic, shuffle):
            assert product(z, LinComb.zero()) == product(LinComb.zero(), z) == LinComb.zero()
            assert product(z, LinComb.unit()) == product(LinComb.unit(), z) == z


class TestHarmonicProduct:
    def test_unit_law(self):
        w = comb(3, 1)
        assert harmonic(LinComb.unit(), w) == w
        assert harmonic(w, LinComb.unit()) == w

    def test_depth_one_examples(self):
        # pinned from the quasi-shuffle oracle
        assert harmonic(comb(1), comb(1)) == comb_from_parts({(1, 1): 2, (2,): 1})
        assert harmonic(comb(2), comb(2)) == comb_from_parts({(2, 2): 2, (4,): 1})

    @given(small_indices, small_indices)
    @settings(max_examples=60, deadline=None)
    def test_matches_quasi_shuffle_oracle(self, u, v):
        expected = comb_from_parts(quasi_shuffle_oracle(u.parts, v.parts))
        assert harmonic(LinComb.of_index(u), LinComb.of_index(v)) == expected

    def test_domain_error_outside_h1(self):
        bad = LinComb.of_word(Word.parse("01"))
        with pytest.raises(DomainError):
            harmonic(bad, comb(2))

    @given(h1_combs, h1_combs)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, x, y):
        assert harmonic(x, y) == harmonic(y, x)

    def test_associative_on_words(self):
        pool = [idx(1), idx(2), idx(1, 1), idx(3), idx(2, 1)]
        for a, b, c in itertools.product(pool, repeat=3):
            if a.weight + b.weight + c.weight > 7:
                continue
            x, y, z = map(LinComb.of_index, (a, b, c))
            assert harmonic(harmonic(x, y), z) == harmonic(x, harmonic(y, z))

    @given(small_indices, small_indices)
    @settings(max_examples=40, deadline=None)
    def test_grading(self, u, v):
        product = harmonic(LinComb.of_index(u), LinComb.of_index(v))
        assert all(w.length == u.weight + v.weight for w in product.support())

    def test_h0_closure(self):
        admissible = [idx(2), idx(3), idx(1, 2), idx(2, 2), idx(1, 1, 2)]
        for u, v in itertools.product(admissible, repeat=2):
            assert harmonic(LinComb.of_index(u), LinComb.of_index(v)).in_h0

    def test_word_table_matches_quasi_shuffle_oracle(self):
        # the table right-recurses on words; cold, every pair up to weight 8 is built by that recursion
        algebra._harmonic_parts.cache_clear()
        indices = indices_up_to_weight(8, include_empty=True)
        for u in indices:
            for v in indices:
                if u.weight + v.weight > 8:
                    continue
                oracle = quasi_shuffle_oracle(u.parts, v.parts).items()
                expected = tuple(sorted((word_of_index(Index(parts)), mult) for parts, mult in oracle))
                assert algebra._harmonic_parts(word_of_index(u), word_of_index(v)) == expected, (u, v)


class TestShuffleProduct:
    def test_unit_law(self):
        w = LinComb.of_word(Word.parse("0110"))
        assert shuffle(LinComb.unit(), w) == w
        assert shuffle(w, LinComb.unit()) == w

    def test_single_letter_example(self):
        result = shuffle(LinComb.of_word(Word.parse("1")), LinComb.of_word(Word.parse("0")))
        assert result == comb_from_letters({(1, 0): 1, (0, 1): 1})

    def test_weight_two_example(self):
        # pinned from the interleaving oracle
        assert shuffle(comb(2), comb(2)) == comb_from_parts({(2, 2): 2, (1, 3): 4})

    @given(words, words)
    @settings(max_examples=60, deadline=None)
    def test_matches_interleaving_oracle(self, a, b):
        expected = comb_from_letters(shuffle_oracle(a.letters(), b.letters()))
        assert shuffle(LinComb.of_word(a), LinComb.of_word(b)) == expected

    @given(words, words)
    @settings(max_examples=40, deadline=None)
    def test_commutative(self, a, b):
        x, y = LinComb.of_word(a), LinComb.of_word(b)
        assert shuffle(x, y) == shuffle(y, x)

    def test_associative_on_words(self):
        pool = [Word.parse(t) for t in ("1", "0", "10", "11", "01")]
        for a, b, c in itertools.product(pool, repeat=3):
            x, y, z = map(LinComb.of_word, (a, b, c))
            assert shuffle(shuffle(x, y), z) == shuffle(x, shuffle(y, z))

    @given(words, words)
    @settings(max_examples=40, deadline=None)
    def test_letter_conservation_and_grading(self, a, b):
        product = shuffle(LinComb.of_word(a), LinComb.of_word(b))
        ones = sum(a.letters()) + sum(b.letters())
        for w in product.support():
            assert w.length == a.length + b.length
            assert sum(w.letters()) == ones

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_binomial_mass_for_distinct_letters(self, m, n):
        zeros = LinComb.of_word(Word.from_letters([0] * m))
        ones = LinComb.of_word(Word.from_letters([1] * n))
        product = shuffle(zeros, ones)
        assert sum(c for _, c in product.items()) == Fraction(math.comb(m + n, m))

    def test_h0_closure(self):
        for u, v in itertools.product([idx(2), idx(3), idx(1, 2)], repeat=2):
            assert shuffle(LinComb.of_index(u), LinComb.of_index(v)).in_h0


def test_products_are_thread_safe():
    pairs = [(idx(1, 2), idx(2, 1)), (idx(2), idx(1, 1)), (idx(3), idx(1, 2))]

    def work(pair):
        x, y = map(LinComb.of_index, pair)
        return harmonic(x, y), shuffle(x, y)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, pairs * 16))
    for i, pair in enumerate(pairs * 16):
        assert results[i] == work(pair)
