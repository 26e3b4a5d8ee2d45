"""Weight combinatorics: straightening, strips, positive/negative split."""

import itertools

import pytest

from hlvertex.weights import (
    alpha_beta,
    dominant_weights,
    dual_weight,
    format_blocked,
    format_weight,
    is_dominant,
    is_vertical_strip,
    parse_blocked,
    parse_weight,
    partitions_of,
    rho,
    straighten,
    trim_zeros,
    vertical_strip_grow,
    vertical_strip_shrink,
)


class TestRho:
    def test_values(self):
        assert rho(1) == (0,)
        assert rho(2) == (1, 0)
        assert rho(3) == (2, 1, 0)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            rho(0)


class TestStraighten:
    def test_examples(self):
        assert straighten((1, 2)) == (0, None)
        assert straighten((3, 1)) == (1, (3, 1))
        assert straighten((0, 2)) == (-1, (1, 1))
        assert straighten(()) == (1, ())

    def test_idempotent_on_dominant(self):
        for length in range(0, 4):
            for nu in dominant_weights(length, -2, 3):
                assert straighten(nu) == (1, nu)

    def test_adjacent_swap_flips_sign(self):
        # exchanging entries through the shifted action negates the sign;
        # with idempotence on dominant weights this fixes every sign
        for length in range(2, 6):
            for v in itertools.product(range(-2, 4), repeat=length):
                for i in range(length - 1):
                    w = list(v)
                    w[i], w[i + 1] = v[i + 1] - 1, v[i] + 1
                    s1, n1 = straighten(v)
                    s2, n2 = straighten(tuple(w))
                    assert n1 == n2
                    assert s1 == -s2

    def test_result_always_dominant(self):
        for v in itertools.product(range(-3, 4), repeat=4):
            s, nu = straighten(v)
            if s:
                assert is_dominant(nu)


class TestDualWeight:
    def test_examples(self):
        assert dual_weight((2, 0, -1)) == (1, 0, -2)
        assert dual_weight(()) == ()

    def test_involution_preserves_dominance(self):
        for v in dominant_weights(3, -3, 3):
            assert dual_weight(dual_weight(v)) == v
            assert is_dominant(dual_weight(v))


class TestVerticalStrips:
    def test_is_vertical_strip(self):
        assert is_vertical_strip((2, 1), (1, 1))
        assert not is_vertical_strip((3, 1), (1, 1))
        assert is_vertical_strip((4, 4, 0), (4, 4, 0))
        with pytest.raises(ValueError):
            is_vertical_strip((1,), (1, 0))

    def test_shrink_examples(self):
        assert set(vertical_strip_shrink((1, 0))) == {(1, 0), (0, 0), (1, -1), (0, -1)}
        assert set(vertical_strip_shrink((0,))) == {(0,), (-1,)}
        assert set(vertical_strip_shrink((1, 1))) == {(1, 1), (1, 0), (0, 0)}

    def test_grow_examples(self):
        assert set(vertical_strip_grow((0,))) == {(0,), (1,)}
        assert set(vertical_strip_grow((1, 1))) == {(1, 1), (2, 1), (2, 2)}

    def test_against_brute_force(self):
        for nu in list(dominant_weights(2, -2, 2)) + list(dominant_weights(4, 0, 2)):
            brute_shrink = {
                tuple(nu[i] - d[i] for i in range(len(nu)))
                for d in itertools.product((0, 1), repeat=len(nu))
            }
            brute_shrink = {b for b in brute_shrink
                            if is_dominant(b) and is_vertical_strip(nu, b)}
            assert set(vertical_strip_shrink(nu)) == brute_shrink
            brute_grow = {
                tuple(nu[i] + d[i] for i in range(len(nu)))
                for d in itertools.product((0, 1), repeat=len(nu))
            }
            brute_grow = {a for a in brute_grow
                          if is_dominant(a) and is_vertical_strip(a, nu)}
            assert set(vertical_strip_grow(nu)) == brute_grow

    def test_grow_size_bound(self):
        for mu in dominant_weights(3, 0, 2):
            for alpha in vertical_strip_grow(mu):
                assert 0 <= sum(alpha) - sum(mu) <= len(mu)


class TestAlphaBeta:
    def test_examples(self):
        al, be = alpha_beta((2, -1))
        assert trim_zeros(al) == (2,) and trim_zeros(be) == (1,)
        al, be = alpha_beta((3, 1, 0))
        assert trim_zeros(al) == (3, 1) and trim_zeros(be) == ()
        al, be = alpha_beta((-1, -2))
        assert trim_zeros(al) == () and trim_zeros(be) == (2, 1)

    def test_nonnegative_weights_split_trivially(self):
        for gamma in dominant_weights(3, 0, 3):
            al, be = alpha_beta(gamma)
            assert al == gamma
            assert trim_zeros(be) == ()

    def test_full_length_output(self):
        al, be = alpha_beta((2, -1))
        assert len(al) == len(be) == 2

    def test_rejects_a_weight_that_is_not_dominant(self):
        with pytest.raises(ValueError, match=r"^\(0, 1\) is not dominant$"):
            alpha_beta((0, 1))


class TestHelpers:

    def test_partitions_of(self):
        assert list(partitions_of(0)) == [()]
        assert set(partitions_of(4, max_len=2)) == {(4,), (3, 1), (2, 2)}
        assert set(partitions_of(3, max_part=2)) == {(2, 1), (1, 1, 1)}

    def test_text_notation(self):
        assert parse_weight("2,-1") == (2, -1)
        assert parse_weight("") == ()
        assert format_weight((2, -1)) == "2,-1"
        assert parse_blocked("2,2;4,1") == ((2, 2), (4, 1))
        assert format_blocked(((2, 2), (4, 1))) == "2,2;4,1"
        with pytest.raises(ValueError, match="entry 1"):
            parse_weight("2,x")

    def test_is_dominant_against_pairwise_comparison(self):
        # every tuple of length 0-5 with entries -2..2, lists too
        checked = 0
        for k in range(6):
            for w in itertools.product(range(-2, 3), repeat=k):
                want = all(w[i] >= w[i + 1] for i in range(len(w) - 1))
                assert is_dominant(w) is want, w
                assert is_dominant(list(w)) is want, w
                checked += 1
        assert checked == 3906
