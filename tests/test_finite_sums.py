from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzvkit.algebra import (
    Index,
    LinComb,
    Word,
    harmonic,
    index_of_word,
    indices_up_to_weight,
    shuffle,
    word_of_index,
)
from mzvkit.errors import CapExceededError, DomainError
import mzvkit.finite_sums as fs
from mzvkit.finite_sums import (
    ChainWalk,
    ConstraintChain,
    IntegerRows,
    RArgs,
    Step,
    boundary_overlap_sum,
    brute_force,
    diagonal_overlap_sum,
    diagonal_terms,
    evaluate_chain,
    r_value,
    word_chain,
    zeta_flat,
    zeta_lt,
    zeta_natural,
    zn_apply,
)
from mzvkit.cli import main
from mzvkit.numeric import FloatRows, _exponents, chain_value_f, zeta_flat_f, zeta_lt_f, zeta_natural_f
from mzvkit.verification import CampaignConfig, _shuffle_pairs

from _oracles import chain_value_f_oracle, counting_rows, trie_work


def idx(*parts):
    return Index(tuple(parts))


def harmonic_number(n):
    return sum((Fraction(1, m) for m in range(1, n + 1)), Fraction(0))


class TestPlainSums:
    def test_examples(self):
        assert zeta_lt(idx(1), 4) == Fraction(11, 6)
        assert zeta_lt(idx(2), 5) == Fraction(205, 144)
        assert zeta_lt(idx(1, 2), 3) == Fraction(1, 4)

    def test_empty_index(self):
        assert zeta_lt(idx(), 1) == 1
        assert zeta_lt(idx(), 10) == 1

    def test_degenerate_n(self):
        assert zeta_lt(idx(2), 1) == 0
        assert zeta_lt(idx(1, 1), 2) == 0  # needs two distinct values below 2

    def test_monotone_in_n(self):
        values = [zeta_lt(idx(1, 2), n) for n in range(1, 30)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_step_equation(self):
        # the terms of zeta_<N+1(k) with n_r = N: the recursion that the regularized polynomials follow
        for k in indices_up_to_weight(5):
            for n in (1, 2, 3, 7, 16):
                step = zeta_lt(k, n + 1) - zeta_lt(k, n)
                assert step == Fraction(1, n ** k.parts[-1]) * zeta_lt(Index(k.parts[:-1]), n), (k, n)

    def test_n_validation(self):
        with pytest.raises(DomainError):
            zeta_lt(idx(2), 0)


class TestFlatSums:
    def test_matches_plain_example(self):
        assert zeta_flat(idx(2), 5) == Fraction(205, 144)

    def test_depth_one_weight_one_is_harmonic_number(self):
        for n in (2, 5, 9, 17):
            assert zeta_flat(idx(1), n) == harmonic_number(n - 1)

    def test_two_ones_small(self):
        # single pair (1,2) with both weights 1/(N-n)
        assert zeta_flat(idx(1, 1), 3) == Fraction(1, 2)
        assert zeta_lt(idx(1, 1), 3) == Fraction(1, 2)

    def test_plain_equals_flat_sweep(self):
        for k in indices_up_to_weight(4):
            for n in (2, 3, 5, 8, 13, 21, 34, 55):
                assert zeta_lt(k, n) == zeta_flat(k, n), (k, n)

    def test_plain_equals_flat_weight_six_spot(self):
        for k in (idx(1, 2, 3), idx(2, 2, 2), idx(1, 1, 1, 1, 1, 1), idx(5, 1)):
            assert zeta_lt(k, 60) == zeta_flat(k, 60)


class TestNaturalSums:
    def test_example(self):
        assert zeta_natural(idx(2), 5) == Fraction(85, 144)

    def test_flat_minus_natural_boundary(self):
        assert zeta_flat(idx(2), 5) - zeta_natural(idx(2), 5) == Fraction(5, 6)
        # equals the single-variable boundary sum over equal adjacent pairs
        n = 5
        boundary = sum((Fraction(1, (n - m) * m) for m in range(1, n)), Fraction(0))
        assert boundary == Fraction(5, 6)

    def test_depth_one_weight_one_equals_flat(self):
        for n in (2, 7, 12):
            assert zeta_natural(idx(1), n) == zeta_flat(idx(1), n)

    def test_duality_is_exact_at_every_n(self):
        # n -> N - n reverses a strict chain and swaps its weights 1/n and 1/(N - n), so the natural
        # sum of a word equals that of its dual (reversed, e0 <-> e1) wherever both are index words
        checked = skipped = 0
        for k in indices_up_to_weight(7):
            dual = Word.from_letters(1 - x for x in reversed(word_of_index(k).letters()))
            if not dual.in_h1:
                skipped += 1
                continue
            for n in (2, 5, 9, 17):
                assert zeta_natural(k, n) == zeta_natural(index_of_word(dual), n), (k, n)
                checked += 1
        assert (checked, skipped) == (252, 64)

    def test_flat_sums_are_not_duality_invariant(self):
        # the flat chain's non-strict e0 steps break the symmetry n -> N - n, which pins the
        # letter -> step map of both variants: of the 28 pairs of distinct dual index words of
        # weight <= 7, the flat sums differ for 5 at N = 2 ((k) and (1^(k-2),2), k = 3..7) and
        # for all 28 at N = 5, 9 and 17; the natural sums differ for none
        pairs = set()
        for k in indices_up_to_weight(7):
            word = word_of_index(k)
            dual = Word.from_letters(1 - x for x in reversed(word.letters()))
            if dual.in_h1 and dual != word:
                pairs.add(tuple(sorted((word, dual))))
        assert len(pairs) == 28

        def differing(evaluate, n):
            return sum(evaluate(index_of_word(u), n) != evaluate(index_of_word(v), n) for u, v in pairs)

        assert {n: differing(zeta_flat, n) for n in (2, 5, 9, 17)} == {2: 5, 5: 28, 9: 28, 17: 28}
        assert {n: differing(zeta_natural, n) for n in (2, 5, 9, 17)} == {2: 0, 5: 0, 9: 0, 17: 0}

    def test_boundary_decomposition_exact(self):
        for k in indices_up_to_weight(4):
            for n in (2, 6, 11, 25):
                expected = zeta_flat(k, n) - zeta_natural(k, n)
                assert boundary_overlap_sum(k, n) == expected, (k, n)


class TestRValues:
    def test_example(self):
        assert r_value(RArgs.parse("2,1;0,0"), 5) == Fraction(17, 32)

    def test_partial_fraction_closed_form(self):
        for n in (2, 4, 10, 33):
            assert r_value(RArgs.parse("1;1"), n) == 2 * harmonic_number(n - 1) / n

    def test_n_validation(self):
        with pytest.raises(DomainError):
            r_value(RArgs.parse("1;1"), 1)

    def test_rargs_validation(self):
        with pytest.raises(DomainError):
            RArgs.parse("0;1")  # first (N-n) exponent must be >= 1
        with pytest.raises(DomainError):
            RArgs.parse("1,0;0,0")  # a_i + b_i >= 1 fails at position 2
        with pytest.raises(DomainError):
            RArgs.parse("1;0,0")  # length mismatch
        with pytest.raises(DomainError):
            RArgs.parse("1;-1")

    def test_limit_toward_nested_zeta(self):
        # R(2,1;0,0) is the reversed truncated sum of (1,2)
        for n in (10, 25):
            assert r_value(RArgs.parse("2,1;0,0"), n) == zeta_lt(idx(1, 2), n)


class TestLinearMaps:
    def test_unit(self):
        for variant in ("plain", "flat", "natural"):
            assert zn_apply(LinComb.unit(), 17, variant) == 1

    def test_single_word(self):
        assert zn_apply(LinComb.of_index(idx(2)), 5) == Fraction(205, 144)

    def test_harmonic_product_formula(self):
        x = LinComb.of_index(idx(2))
        value = zn_apply(harmonic(x, x), 5)
        assert value == Fraction(205, 144) ** 2

    @given(
        st.tuples(
            st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda p: sum(p) <= 5),
            st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda p: sum(p) <= 5),
            st.integers(2, 40),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_harmonic_homomorphism_random(self, data):
        p1, p2, n = data
        x, y = LinComb.of_index(idx(*p1)), LinComb.of_index(idx(*p2))
        assert zn_apply(harmonic(x, y), n) == zn_apply(x, n) * zn_apply(y, n)

    @given(
        st.tuples(st.lists(st.integers(1, 3), max_size=3), st.lists(st.integers(1, 3), max_size=3)).filter(
            lambda pq: sum(pq[0]) + sum(pq[1]) <= 5
        ),
        st.sampled_from(["harmonic", "shuffle"]),
        st.sampled_from(["plain", "flat", "natural"]),
        st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_walk_equals_brute_force_on_products(self, pq, op, variant, n):
        p, q = pq
        x, y = LinComb.of_index(idx(*p)), LinComb.of_index(idx(*q))
        product = (harmonic if op == "harmonic" else shuffle)(x, y)
        expected = sum(
            (c * brute_force(index_of_word(w), n, kind=variant) for w, c in product.items()),
            Fraction(0),
        )
        assert zn_apply(product, n, variant) == expected

    # words of weight 0..5 with coefficients p/q, mixed signs and denominators up to 12
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(indices_up_to_weight(5, include_empty=True)),
                st.integers(-12, 12).filter(bool),
                st.integers(1, 12),
            ),
            max_size=5,
        ),
        st.sampled_from(["plain", "flat", "natural"]),
        st.sampled_from([2, 5, 9, 17]),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_sum_equals_the_fraction_sum(self, terms, variant, n):
        x = LinComb((word_of_index(k), Fraction(p, q)) for k, p, q in terms)
        termwise = sum((c * evaluate_chain(word_chain(w, variant), n) for w, c in x.items()), Fraction(0))
        assert zn_apply(x, n, variant) == termwise
        oracle = sum((c * brute_force(index_of_word(w), n, kind=variant) for w, c in x.items()), Fraction(0))
        assert termwise == oracle

    def test_a_table_sum_off_the_common_denominator_adds_exactly(self):
        # the common denominator is checked, not assumed: a sum whose denominator does not divide
        # lcm(1..8)^w, read after a lighter word's, must still add exactly
        x = LinComb(
            [
                (word_of_index(idx()), Fraction(3, 7)),
                (word_of_index(idx(2)), Fraction(-5, 4)),
                (word_of_index(idx(1, 2)), Fraction(1, 3)),
                (word_of_index(idx(2, 1)), Fraction(2, 9)),
            ]
        )
        n, off = 9, word_chain(word_of_index(idx(1, 2)), "plain").steps
        fs._chain_sums.cache_clear()
        try:
            fs.walk_words(x.support(), n)
            table = fs._chain_sums(n)
            table[off] += Fraction(1, 1000003)  # a prime above every n < 9
            expected = sum((c * table[word_chain(w, "plain").steps] for w, c in x.items()), Fraction(0))
            assert zn_apply(x, n) == expected
            assert zn_apply(x, n) - Fraction(1, 3 * 1000003) == sum(
                (c * brute_force(index_of_word(w), n) for w, c in x.items()), Fraction(0)
            )
        finally:
            fs._chain_sums.cache_clear()

    def test_walk_takes_one_step_per_distinct_prefix(self):
        x, y = LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2, 1))
        product = shuffle(x, y)
        chains = sorted(ConstraintChain.natural(index_of_word(w)).steps for w, _ in product.items())
        work = Counter()

        class Counting(counting_rows(IntegerRows, work)):
            def weights(self, a, b):
                work["weights"] += 1
                return super().weights(a, b)

        walk = ChainWalk(Counting(9))
        walk.walk(chains)
        sums = [walk.value(steps) for steps in chains]
        assert sums == [evaluate_chain(ConstraintChain(steps), 9) for steps in chains]
        rows, nodes = trie_work(chains)
        assert work["rows"] == rows < sum(len(steps) - 1 for steps in chains)  # one row per distinct prefix
        assert work["cumulations"] == nodes < rows  # one running sum per node with children
        assert work["weights"] == len({(s.a, s.b) for steps in chains for s in steps})

    def test_walk_takes_the_missing_chains_in_sorted_order(self):
        x, y = LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2, 1))
        words = harmonic(x, y).support() | shuffle(x, y).support()
        chains = [ConstraintChain.natural(index_of_word(w)).steps for w in words]
        known = chains[::3]
        walked, work = [], Counter()

        class Counting(counting_rows(IntegerRows, work)):
            def total(self, values, chain):
                walked.append(chain)
                return super().total(values, chain)

        table = {c: evaluate_chain(ConstraintChain(c), 9) for c in known}
        walk = ChainWalk(Counting(9), table)
        walk.walk(chains + chains[::-1])  # in any order, with repeats
        new = sorted(set(chains) - set(known))
        assert walked == new  # only the missing chains, each once, in sorted order
        assert (work["rows"], work["cumulations"]) == trie_work(new)
        assert table == {c: evaluate_chain(ConstraintChain(c), 9) for c in chains}
        walked.clear()
        walk.walk(chains)  # every chain known: nothing to walk
        assert walked == [] and (work["rows"], work["cumulations"]) == trie_work(new)

    def test_every_word_goes_through_evaluate_chain(self, monkeypatch):
        # the benchmark's tracer counts the DP work of zn_apply at evaluate_chain
        import mzvkit.finite_sums as fs

        seen, work = [], Counter()
        original = fs.evaluate_chain

        def counting(chain, N, walk=None):
            seen.append((chain.steps, N))
            return original(chain, N, walk)

        monkeypatch.setattr(fs, "evaluate_chain", counting)
        monkeypatch.setattr(fs, "IntegerRows", counting_rows(IntegerRows, work))
        fs._chain_sums.cache_clear()
        product = harmonic(LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2, 1)))
        expected = {ConstraintChain.flat(index_of_word(w)).steps for w in product.support()}
        oracle = sum((c * brute_force(index_of_word(w), 7, kind="flat") for w, c in product.items()), Fraction(0))
        for call in ("cold", "warm"):
            seen.clear()
            work.clear()
            assert zn_apply(product, 7, "flat") == oracle, call
            assert {steps for steps, _ in seen} == expected and len(seen) == len(product)
            assert {N for _, N in seen} == {7}
            # the second call reads every sum from the table at N = 7 and walks nothing
            assert (work["rows"] > 0) == (call == "cold"), call

    def test_walk_words_fills_the_table_in_one_sorted_walk(self, monkeypatch):
        import mzvkit.finite_sums as fs

        work = Counter()

        def refuse(*args, **kwargs):
            raise AssertionError("walk_words goes round zn_apply and evaluate_chain")

        x, y = LinComb.of_index(idx(1, 2)), LinComb.of_index(idx(2, 1))
        combos = (x, y, shuffle(x, y), harmonic(x, y))
        words = {w for z in combos for w in z.support()}
        chains = {ConstraintChain.natural(index_of_word(w)).steps for w in words}
        fs._chain_sums.cache_clear()
        monkeypatch.setattr(fs, "IntegerRows", counting_rows(IntegerRows, work))
        with monkeypatch.context() as m:
            m.setattr(fs, "zn_apply", refuse)
            m.setattr(fs, "evaluate_chain", refuse)
            fs.walk_words(words, 9, "natural")
            assert (work["rows"], work["cumulations"]) == trie_work(chains)
            assert set(fs._chain_sums(9)) == chains
            work.clear()
            fs.walk_words(words, 9, "natural")  # every chain known: nothing to walk
            assert not work
        for z in combos:
            expected = sum((c * brute_force(index_of_word(w), 9, kind="natural") for w, c in z.items()), Fraction(0))
            assert zn_apply(z, 9, "natural") == expected
        assert not work  # zn_apply read every word from the table
        with pytest.raises(DomainError):
            fs.walk_words([Word.parse("01")], 9)
        with pytest.raises(DomainError):
            fs.walk_words(words, 9, "fancy")

    def test_n_one(self):
        for variant in ("plain", "flat", "natural"):
            assert zn_apply(LinComb.of_index(idx(1, 2)), 1, variant) == 0
            assert zn_apply(LinComb.unit(), 1, variant) == 1

    def test_domain_error_outside_h1(self):
        with pytest.raises(DomainError):
            zn_apply(LinComb.of_word(Word.parse("01")), 5)

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            zn_apply(LinComb.unit(), 5, "fancy")
        with pytest.raises(DomainError):
            zn_apply(LinComb(), 5, "fancy")


class TestBruteForceOracle:
    def test_examples(self):
        assert brute_force(idx(2), 5) == Fraction(205, 144)
        assert brute_force(idx(1, 2), 3) == Fraction(1, 4)
        assert brute_force(RArgs.parse("1;1"), 4) == Fraction(11, 12)

    def test_dp_equals_brute_force_all_variants(self):
        for k in indices_up_to_weight(3):
            for n in (2, 5, 9, 14, 20):
                assert zeta_lt(k, n) == brute_force(k, n, kind="plain"), (k, n)
                assert zeta_flat(k, n) == brute_force(k, n, kind="flat"), (k, n)
                assert zeta_natural(k, n) == brute_force(k, n, kind="natural"), (k, n)

    def test_dp_equals_brute_force_r(self):
        for text in ("1;0", "1;1", "2;1", "1,1;0,0", "2,1;0,0", "2,0;0,1"):
            args = RArgs.parse(text)
            for n in (2, 7, 15, 20):
                assert r_value(args, n) == brute_force(args, n), (text, n)

    def test_generic_chain_target(self):
        chain = ConstraintChain((Step(True, 0, 2), Step(False, 1, 0)))
        assert brute_force(chain, 9) == evaluate_chain(chain, 9)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3)).filter(lambda s: s[1] + s[2] >= 1),
            max_size=5,
        ),
        st.integers(1, 15),
    )
    @example([(True, 1, 0), (False, 0, 1)], 1)
    @example([(True, 2, 1), (False, 0, 3), (True, 1, 1)], 2)
    @settings(max_examples=60, deadline=None)
    def test_dp_equals_brute_force_random_chains(self, steps, n):
        chain = ConstraintChain(tuple(Step(pos == 0 or strict, a, b) for pos, (strict, a, b) in enumerate(steps)))
        exact = brute_force(chain, n)
        assert evaluate_chain(chain, n) == exact
        assert abs(chain_value_f(chain, n) - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))

    @given(
        st.lists(
            st.lists(
                st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 2)).filter(lambda s: s[1] + s[2] >= 1),
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 9),
    )
    @example([[(True, 0, 1), (True, 0, 1)], [(True, 0, 1), (False, 0, 1)]], 6)
    @settings(max_examples=60, deadline=None)
    def test_walk_over_chain_sets_equals_brute_force(self, chains, n):
        steps = [tuple(Step(pos == 0 or strict, a, b) for pos, (strict, a, b) in enumerate(c)) for c in chains]
        expected = [brute_force(ConstraintChain(c), n) for c in steps]
        for order in (steps, sorted(steps)):  # one chain at a time, in any order
            walk = ChainWalk(IntegerRows(n))
            assert [walk.value(c) for c in order] == [expected[steps.index(c)] for c in order]
        # the whole set in one walk, with repeats and the empty chain: one row and one running sum per trie node
        work = Counter()
        walk = ChainWalk(counting_rows(IntegerRows, work)(n))
        walk.walk(steps + steps[::-1] + [()])
        assert (work["rows"], work["cumulations"]) == trie_work(steps)
        assert [walk.sums[c] for c in steps] == expected and walk.sums[()] == 1
        floats = ChainWalk(FloatRows((n,), _exponents(steps)))
        floats.walk(steps + [()])
        assert [floats.sums[c] for c in steps] == [(chain_value_f_oracle(ConstraintChain(c), n),) for c in steps]
        assert floats.sums[()] == (1.0,)

    def test_caps_refuse(self):
        with pytest.raises(CapExceededError):
            brute_force(idx(2), 100)
        with pytest.raises(CapExceededError):
            brute_force(idx(3, 3, 3), 10)
        # explicit caps can widen the window
        assert brute_force(idx(2), 45, max_n=50) == zeta_lt(idx(2), 45)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            brute_force(idx(2), 5, kind="fancy")


class TestShuffleDecompositionAtFiniteN:
    def test_diagonal_terms_close_the_gap(self):
        cases = [
            (idx(1), idx(2), 10),
            (idx(2), idx(2), 12),
            (idx(1, 1), idx(3), 10),
            (idx(2), idx(1, 2), 9),
            (idx(2, 2), idx(1, 3), 10),  # weight 8, past the brute-force cap
        ]
        for k, l, n in cases:
            x, y = LinComb.of_index(k), LinComb.of_index(l)
            lhs = zn_apply(x, n, "natural") * zn_apply(y, n, "natural")
            rhs = zn_apply(shuffle(x, y), n, "natural") + diagonal_terms(k, l, n)
            assert lhs == rhs, (k, l, n)
        with pytest.raises(CapExceededError):
            diagonal_overlap_sum(idx(2, 2), idx(1, 3), 10)

    def test_dp_equals_brute_force_on_default_pairs(self):
        for k, l in _shuffle_pairs(CampaignConfig()):
            for n in (2, 3, 5, 10):
                assert diagonal_terms(k, l, n) == diagonal_overlap_sum(k, l, n), (k, l, n)

    @given(
        st.sampled_from(
            [
                (k, l)
                for k in indices_up_to_weight(6, include_empty=True)
                for l in indices_up_to_weight(6 - k.weight, include_empty=True)
            ]
        ),
        st.integers(1, 12),
    )
    @example((idx(1), idx(2)), 1)
    @example((idx(2, 1), idx(1, 2)), 2)
    @settings(max_examples=60, deadline=None)
    def test_dp_equals_brute_force_random_pairs(self, pair, n):
        k, l = pair
        assert diagonal_terms(k, l, n) == diagonal_overlap_sum(k, l, n)


class TestChainValidation:
    def test_first_relation_must_be_strict(self):
        with pytest.raises(DomainError):
            ConstraintChain((Step(False, 0, 1),))

    def test_empty_chain_value(self):
        assert evaluate_chain(ConstraintChain(()), 7) == 1

    def test_a_walk_at_another_n_raises(self):
        chain = ConstraintChain.plain(idx(1, 2))
        with pytest.raises(DomainError):
            evaluate_chain(chain, 5, ChainWalk(IntegerRows(9)))
        assert evaluate_chain(chain, 5, ChainWalk(IntegerRows(5))) == Fraction(17, 32)


class TestDeepChains:
    """Chains deeper than Python's recursion limit walk like any other."""

    def test_msw_at_depth_3000(self):
        k = idx(3000)
        exact = 1 + Fraction(1, 2 ** 3000)
        assert zeta_flat(k, 3) == zeta_lt(k, 3) == exact
        assert zeta_natural(k, 3) == 0
        assert zeta_flat_f(k, 3) == zeta_lt_f(k, 3) == float(exact)
        assert zeta_natural_f(k, 3) == 0.0

    def test_one_walk_of_two_chains_sharing_a_deep_prefix(self):
        chains = [ConstraintChain.flat(idx(3000)).steps, ConstraintChain.flat(idx(2999, 1)).steps]
        assert len(chains[0]) == len(chains[1]) == 3000 and chains[0][:2999] == chains[1][:2999]
        exact, floats = ChainWalk(IntegerRows(3)), ChainWalk(FloatRows((3,), _exponents(chains)))
        exact.walk(chains)
        floats.walk(chains)
        for steps in chains:
            value = evaluate_chain(ConstraintChain(steps), 3)
            assert exact.sums[steps] == value
            assert floats.sums[steps] == (float(value),)

    def test_cli_sums_a_deep_flat_chain(self, capsys):
        printed = {}
        for kind in ("flat", "plain"):
            assert main(["sum", "--kind", kind, "3000", "--n", "3"]) == 0
            printed[kind] = capsys.readouterr().out
        assert printed["flat"] == printed["plain"]


class TestChainsOfWords:
    def test_each_step_follows_its_letter(self):
        # e1: strict, weight 1/(N-n); e0: weight 1/n, non-strict in the flat chain only
        for k in indices_up_to_weight(8, include_empty=True):
            letters = word_of_index(k).letters()
            flat = ConstraintChain.flat(k).steps
            natural = ConstraintChain.natural(k).steps
            assert len(flat) == len(natural) == k.weight
            for letter, f, n in zip(letters, flat, natural):
                if letter:
                    assert f == n == Step(True, 1, 0), k
                else:
                    assert (f, n) == (Step(False, 0, 1), Step(True, 0, 1)), k
            # the strict steps of the flat chain are J(k): they spell the word, one per part
            assert Word.from_letters(int(step.strict) for step in flat) == word_of_index(k)
            assert sum(step.strict for step in flat) == k.depth

    def test_natural_does_not_build_the_flat_chain(self, monkeypatch):
        def refuse(k):
            raise AssertionError("natural goes through flat")

        monkeypatch.setattr(ConstraintChain, "flat", refuse)
        steps = ConstraintChain.natural(idx(2, 1)).steps
        assert steps == (Step(True, 1, 0), Step(True, 0, 1), Step(True, 1, 0))
