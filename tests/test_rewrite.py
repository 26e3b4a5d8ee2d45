"""Operator-word rewriting with evaluation certificates."""

import gc
import hashlib
import itertools
import json
import random
import re
import subprocess
import sys
from operator import add, sub

import pytest

import hlvertex.rewrite as rewrite_module
import hlvertex.vertexop as vertexop_module
from hlvertex.coeffs import QPoly, QRat
from hlvertex.memo import clear_caches
from hlvertex.rewrite import (
    OpSum,
    evaluate,
    format_word,
    normalize,
    operators_equal,
    parse_word,
    relation_instance,
    rewrite_dominant,
    shift_support,
    swap_factors,
)
from hlvertex.symfunc import SymFunc, one, schur
from hlvertex.vertexop import apply_F, apply_H, apply_H_sum, apply_H_word
from hlvertex.weights import (
    dominant_weights,
    is_dominant,
    partitions_of,
    straighten,
    vertical_strip_grow,
    vertical_strip_shrink,
)
from test_cli import source_env

Q = QRat.q()


def qp(d):
    return QRat(QPoly(d))


class TestNormalize:
    def test_vanishing_factor(self):
        assert normalize({((1, 2), (0,)): QRat.one()}).is_zero()

    def test_straightening_with_sign(self):
        got = normalize({((0, 2), (1,)): QRat.one()})
        assert got == OpSum({((1, 1), (1,)): -QRat.one()})

    def test_already_normal(self):
        s = OpSum({((2, 1), (1,)): Q})
        assert normalize({((2, 1), (1,)): Q}) == s

    def test_cancellation(self):
        got = normalize({((0, 2), (1,)): QRat.one(), ((1, 1), (1,)): QRat.one()})
        assert got.is_zero()

    def test_rejects_raw_blocks_in_constructor(self):
        with pytest.raises(ValueError):
            OpSum({((0, 2),): QRat.one()})


class TestWordNotation:
    def test_roundtrip(self):
        w = parse_word("H[2,2]H[4,1]")
        assert w == ((2, 2), (4, 1))
        assert format_word(w) == "H[2,2]H[4,1]"
        assert parse_word("H[]") == ((),)
        assert parse_word("H[-1,0]H[3]") == ((-1, 0), (3,))

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_word("G[1]")
        with pytest.raises(ValueError):
            parse_word("H[1")
        with pytest.raises(ValueError):
            parse_word("H[a]")

    @pytest.mark.parametrize("text", ["", "  "], ids=["empty", "blank"])
    def test_no_blocks(self, text):
        with pytest.raises(ValueError, match="^no operator blocks in ''$"):
            parse_word(text)


class TestEvaluate:
    def test_empty_sum(self):
        assert evaluate(OpSum(), schur((2,))).is_zero()

    def test_single_word(self):
        w = ((1,), (1,))
        assert evaluate(OpSum({w: QRat.one()}), one()) == apply_H_word(w, one())

    def test_identity_word(self):
        f = schur((2, 1))
        assert apply_H_word(((),), f) == f

    def test_nondominant_word_straightens(self):
        assert apply_H_word(((0, 2),), one()) == -schur((1, 1))

    def test_cold_certificate_leaves_no_cycles(self):
        # every object a certificate builds, from the relation generators
        # through the kernel fills to QRat, is freed by reference counting
        enabled = gc.isenabled()
        gc.disable()
        try:
            evaluate(relation_instance("com1", mu=(1,), a=1, b=2, nu=(1,)), schur((1,)))
            clear_caches()
            gc.collect()
            for kind, params in [("com1", dict(mu=(2, 1), a=1, b=3, nu=(1,))),
                                 ("com2", dict(mu=(1,), a=2, nu=(2, 1))),
                                 ("move", dict(mu=(2,), a=1, nu=(1, 1))),
                                 ("bigmove", dict(alpha=(2, 1), beta=(1,), gamma=(1, 1, 0))),
                                 ("same-width", dict(a=1, k=2, n=3)),
                                 ("one-more", dict(a=1, k=2)), ("quad", dict(a=2, k=2))]:
                rel = relation_instance(kind, **params)
                for d in range(3):
                    for tau in partitions_of(d):
                        assert evaluate(rel, schur(tau)).is_zero(), (kind, tau)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestRelationInstances:
    RELATIONS = [
        ("com1", dict(mu=(2,), a=2, b=4, nu=(1,))),
        ("com1", dict(mu=(), a=0, b=2, nu=(1,))),
        ("com1", dict(mu=(1, 1), a=1, b=3, nu=(2,))),
        ("com2", dict(mu=(2,), a=3, nu=(1,))),
        ("com2", dict(mu=(3,), a=2, nu=(1,))),
        ("com2", dict(mu=(), a=1, nu=(1, 1))),
        ("move", dict(mu=(5,), a=3, nu=(2,))),
        ("move", dict(mu=(2,), a=2, nu=(1, 1))),
        ("move", dict(mu=(), a=0, nu=(2,))),
        ("bigmove", dict(alpha=(2,), beta=(1,), gamma=(1,))),
        ("bigmove", dict(alpha=(1, 1), beta=(1,), gamma=(1, 0))),
        ("bigmove", dict(alpha=(2,), beta=(2, 1), gamma=(0,))),
    ]

    @pytest.mark.parametrize("kind,params", RELATIONS)
    def test_zero_operator(self, kind, params):
        rel = relation_instance(kind, **params)
        assert operators_equal(rel, OpSum(), 4)

    def test_move_reproduces_one_more(self):
        # mu = (a^{k-1}), nu = ((a+1)^k) leaves exactly the two-term
        # q-commutation after straightening
        for a, k in [(1, 2), (0, 2), (2, 3)]:
            rel = relation_instance("move", mu=(a,) * (k - 1), a=a, nu=(a + 1,) * k)
            want = OpSum({((a,) * k, (a + 1,) * k): QRat.one()}) - \
                OpSum({((a + 1,) * k, (a,) * k): Q**k})
            assert rel == want

    def test_move_reproduces_quad(self):
        for a, k in [(1, 2), (2, 2), (1, 3)]:
            rel = relation_instance("move", mu=(a,) * k, a=a, nu=(a,) * (k - 1))
            want = OpSum({((a,) * (k + 1), (a,) * (k - 1)): QRat.one()}) \
                - OpSum({((a,) * k, (a,) * k): QRat.one()}) \
                + OpSum({((a + 1,) * k, (a - 1,) * k): Q**k})
            assert rel == want

    @pytest.mark.parametrize("k,l,m", [(1, 2, 2), (2, 2, 1), (1, 2, 3), (2, 1, 3),
                                       (3, 2, 1), (0, 2, 1), (1, 3, 2)])
    def test_bigmove_with_unequal_outer_lengths(self, k, l, m):
        # bigmove takes any three lengths, not only len(alpha) == len(gamma)
        for alpha in itertools.islice(dominant_weights(k, 0, 2), 3):
            for beta in itertools.islice(dominant_weights(l, 0, 2), 3):
                for gamma in itertools.islice(dominant_weights(m, 0, 1), 2):
                    rel = relation_instance("bigmove", alpha=alpha, beta=beta, gamma=gamma)
                    assert not rel.is_zero()
                    assert operators_equal(rel, OpSum(), 3), (alpha, beta, gamma)

    @pytest.mark.parametrize("kind,params", [
        ("move", dict(mu=(-1, 1), a=1, nu=(-1, -1))),
        ("bigmove", dict(alpha=(-1, 1), beta=(1, 0), gamma=(-1, -1))),
    ])
    def test_move_and_bigmove_take_non_dominant_blocks(self, kind, params):
        # unlike the strip lift of com1 and com2, the Cauchy-twisted moves
        # do not assume dominant blocks, so relation_instance leaves them open
        rel = relation_instance(kind, **params)
        assert not rel.is_zero()
        assert operators_equal(rel, OpSum(), 3)


def oracle_sum(terms, f):
    """sum of c * word(f), one word and one Schur term of f at a time in
    SymFunc arithmetic, so that no denominators meet inside a word."""
    total = SymFunc.zero()
    for word, c in terms:
        for kappa, a in f.terms():
            total = total + apply_H_word(word, schur(kappa)).scale(a * c)
    return total


def blockwise_sum(terms, f):
    """sum of c * word(f), each block straightened here and applied on its
    own with apply_H, so that no block sign or coefficient is folded."""
    total = SymFunc.zero()
    for word, c in terms:
        g = f
        for block in reversed(word):
            sign, nu = straighten(block)
            g = apply_H(nu, g).scale(sign) if sign else SymFunc.zero()
        total = total + g.scale(QRat(c))
    return total


# denominators 1, 1 - q and (1 - q)(1 - q^2) side by side
MIXED_INPUTS = [
    apply_F(schur((2,)), inverse=True) + schur((1,)),
    apply_F(schur((1, 1)), inverse=True).scale(Q) - schur((2, 1)),
    apply_F(schur((1,)), inverse=True) + apply_F(schur((2,)), inverse=True).scale(Q) + one(),
]


def random_opsum(rng, size):
    words = [tuple(tuple(rng.randint(-1, 3) for _ in range(rng.randint(0, 2)))
                   for _ in range(rng.randint(1, 3))) for _ in range(size)]
    return normalize({w: qp({rng.randint(-1, 2): rng.choice([-2, -1, 1, 3])})
                      for w in words})


class TestEvaluateAgainstTermwiseSum:
    INPUTS = [schur(p) for d in range(4) for p in partitions_of(d)] + MIXED_INPUTS

    def check(self, terms, f):
        assert apply_H_sum(terms, f) == oracle_sum(terms, f), (terms, f)

    @pytest.mark.parametrize("kind,params", TestRelationInstances.RELATIONS[::3])
    def test_relation_instances_and_their_parts(self, kind, params):
        terms = relation_instance(kind, **params).terms()
        for f in self.INPUTS:
            assert evaluate(OpSum(dict(terms)), f) == oracle_sum(terms, f)
            self.check(terms[::2], f)

    def test_random_sums_with_cancelling_terms(self):
        rng = random.Random(12)
        rel = relation_instance("com1", mu=(1,), a=1, b=3, nu=(1,))
        for _ in range(20):
            s = random_opsum(rng, 4)
            total = s + rel.scale(QPoly({1: 1}))  # the relation cancels on evaluation
            # raw terms cancelling in the accumulator: a word against its
            # negative, and H_(0,2) against its straightening -H_(1,1)
            raw = s.terms() + [(w, -c) for w, c in s.terms()[:2]] \
                + [(((0, 2),), QPoly.one()), (((1, 1),), QPoly.one())]
            for f in rng.sample(self.INPUTS, 4):
                assert evaluate(total, f) == oracle_sum(total.terms(), f)
                self.check(raw, f)
                assert apply_H_sum(raw[-2:], f).is_zero()

    def test_empty_and_identity(self):
        for f in self.INPUTS:
            assert evaluate(OpSum(), f).is_zero()
            self.check([], f)
            self.check([(((),), QPoly({1: 2}))], f)
            assert evaluate(OpSum({((),): QRat.one()}), f) == f

    def test_vanishing_blocks_and_negative_tails(self):
        terms = [(((0, 1),), QPoly.one()), (((1, -1),), QPoly({0: 1, 1: -1})),
                 (((2, 0, -1), (1,)), QPoly({-1: 1})), (((1,), (0, 1)), QPoly.one()),
                 (((2,), (0, -2)), QPoly({2: -1}))]
        for f in self.INPUTS:
            self.check(terms, f)
            assert apply_H_sum(terms[:1], f).is_zero()

    def test_mixed_denominators_meet_in_one_sum(self):
        terms = [(((1,),), QPoly.one()), (((2,), (1, 1)), QPoly({1: -1})),
                 (((),), QPoly({0: 1, 1: -1}))]
        for f in MIXED_INPUTS:
            self.check(terms, f)
            assert not apply_H_sum(terms, f).is_zero()

    # three-block words whose right or middle block straightens with sign
    # -1: (0, 2) -> -(1, 1), (1, 3) -> -(2, 2), (1, 0, 2) -> -(1, 1, 1)
    SIGNED_WORDS = [((2, 0, -1), (3, 1), (0, 2)), ((1,), (0, 2), (2,)),
                    ((2, 1), (1, 3), (0, 2)), ((1, 0, 2), (1,), (1, 1)),
                    ((1,), (2,), (1, 0, 2))]

    def test_three_block_words_with_signs_and_inverse_q(self):
        # lone Schur functions take the unit-kernel path, the other inputs not
        coeffs = [QPoly({-1: 1}), QPoly({-1: -2, 1: 1}), QPoly({0: 3, -2: 1}),
                  QPoly({2: -1}), QPoly({-1: 1, 0: -1})]
        terms = list(zip(self.SIGNED_WORDS, coeffs))
        for f in self.INPUTS + [schur((1,)) + schur((2,)).scale(Q)]:
            self.check(terms, f)
            assert apply_H_sum(terms, f) == blockwise_sum(terms, f), f
            for term in terms:
                assert apply_H_sum([term], f) == blockwise_sum([term], f), (term, f)

    def test_warm_evaluate_freezes_no_image(self, monkeypatch):
        # only kernel fills freeze, so a warm evaluation copies nothing
        rel = relation_instance("com1", mu=(1,), a=1, b=3, nu=(1,))
        three = [(word, QPoly({-1: 1})) for word in self.SIGNED_WORDS]
        inputs = [schur((2, 1)), schur((1,)) + schur((2,)).scale(Q)] + MIXED_INPUTS
        cold = [(evaluate(rel, f), apply_H_sum(three, f)) for f in inputs]
        frozen = []
        real = vertexop_module._frozen
        monkeypatch.setattr(vertexop_module, "_frozen",
                            lambda acc: frozen.append(acc) or real(acc))
        warm = [(evaluate(rel, f), apply_H_sum(three, f)) for f in inputs]
        assert warm == cold
        assert all(a.is_zero() for a, _ in warm)
        assert frozen == []


class TestIdentityFamilies:
    """Each identity kind is lhs - rhs term for term over criterion 4's
    parameter boxes, so no kind can pass a check as the empty sum."""

    def test_same_width(self):
        for a in (0, 1, 2):
            for k in (1, 2, 3):
                for n in (1, 2, 3):
                    want = OpSum({((a,) * n, (a,) * k): 1}) \
                        - OpSum({((a,) * k, (a,) * n): 1})
                    assert relation_instance("same-width", a=a, k=k, n=n) == want
                    assert want.is_zero() == (n == k)

    def test_one_more(self):
        for a in (0, 1):
            for k in (1, 2, 3):
                want = OpSum({((a,) * k, (a + 1,) * k): 1}) \
                    - OpSum({((a + 1,) * k, (a,) * k): Q**k})
                assert relation_instance("one-more", a=a, k=k) == want
                assert not want.is_zero()

    def test_quad(self):
        for a in (1, 2):
            for k in (1, 2, 3):
                want = OpSum({((a,) * k, (a,) * k): 1}) \
                    - OpSum({((a,) * (k + 1), (a,) * (k - 1)): 1}) \
                    - OpSum({((a + 1,) * k, (a - 1,) * k): Q**k})
                assert relation_instance("quad", a=a, k=k) == want
                assert not want.is_zero()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown relation kind"):
            relation_instance("triple", a=1, k=1)


class TestBigmoveGolden:
    """str() of bigmove instances (k = len(alpha), l = len(beta)), pinned
    before its kernel became the dual Cauchy product."""

    CASES = [
        (((2, 1), (1, 0), (1, 1)),
         "H[2,1,1,0]H[1,1] - q*H[2,1,1,1]H[1,0] - q^2*H[2,2,2,0]H[0,0] "
         "+ q^3*H[2,2,2,1]H[0,-1] - q^4*H[2,2,2,2]H[-1,-1] - q^2*H[3,2]H[1,0,0,0] "
         "+ q^3*H[3,3]H[0,0,0,0] + q^3*H[4,2]H[0,0,0,0]"),
        (((1, 0), (2, 1), (0, -1)),
         "-H[1,0]H[2,1,0,-1] + q*H[1,1]H[1,1,0,-1] + q*H[1,1]H[2,0,0,-1] "
         "- H[1,1,1,1]H[0,-1] + q*H[2,0]H[1,1,0,-1] + q*H[2,0]H[2,0,0,-1] "
         "- 2*q^2*H[2,1]H[1,0,0,-1] + q^3*H[2,2]H[0,0,0,-1] + q^2*H[2,2,1,1]H[-1,-2] "
         "- q^4*H[2,2,2,2]H[-2,-3] - q^2*H[3,0]H[1,0,0,-1] + q^3*H[3,1]H[0,0,0,-1]"),
        (((2, 1, 0), (1, 1), (1, 0, 0)),
         "-H[2,1,0]H[1,1,1,0,0] + q*H[2,1,1,1,1]H[0,0,0] + q*H[2,1,1,1,1]H[1,0,-1] "
         "+ q^2*H[2,2,1]H[1,0,0,0,0] - q^3*H[2,2,2]H[0,0,0,0,0] "
         "- q^3*H[2,2,2,1,1]H[0,-1,-1] + q^5*H[2,2,2,2,2]H[-1,-1,-2] "
         "+ q^5*H[2,2,2,2,2]H[0,-2,-2] + q^2*H[3,1,1]H[1,0,0,0,0] "
         "+ q^2*H[3,2,0]H[1,0,0,0,0] - 2*q^3*H[3,2,1]H[0,0,0,0,0] "
         "- q^3*H[3,3,0]H[0,0,0,0,0] - q^3*H[4,1,1]H[0,0,0,0,0] "
         "- q^3*H[4,2,0]H[0,0,0,0,0]"),
        (((1, 1), (1, 1, 1), (0, 0)),
         "-H[1,1]H[1,1,1,0,0] + H[1,1,1,1,1]H[0,0] + q*H[2,1]H[1,1,0,0,0] "
         "- q^2*H[3,1]H[1,0,0,0,0] + q^3*H[4,1]H[0,0,0,0,0]"),
        (((1, 1, 1), (1, 1, 1), (0, 0, 0)),
         "-H[1,1,1]H[1,1,1,0,0,0] + H[1,1,1,1,1,1]H[0,0,0] + q*H[2,1,1]H[1,1,0,0,0,0] "
         "- q^2*H[3,1,1]H[1,0,0,0,0,0] + q^3*H[4,1,1]H[0,0,0,0,0,0]"),
        (((2, 2), (2, 2, 2, 2), (1, 1)),
         "-H[2,2]H[2,2,2,2,1,1] + H[2,2,2,2,2,2]H[1,1] + q*H[3,2]H[2,2,2,1,1,1] "
         "- q^2*H[4,2]H[2,2,1,1,1,1] + q^3*H[5,2]H[2,1,1,1,1,1] "
         "- q^4*H[6,2]H[1,1,1,1,1,1]"),
        (((1, 1, 1, 1), (1, 1), (0, 0, 0, 0)),
         "-H[1,1,1,1]H[1,1,0,0,0,0] + H[1,1,1,1,1,1]H[0,0,0,0] "
         "+ q*H[2,1,1,1]H[1,0,0,0,0,0] - q^2*H[3,1,1,1]H[0,0,0,0,0,0]"),
        (((1, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 0)),
         "-H[1,1,1,1]H[1,1,1,1,0,0,0,0] + H[1,1,1,1,1,1,1,1]H[0,0,0,0] "
         "+ q*H[2,1,1,1]H[1,1,1,0,0,0,0,0] - q^2*H[3,1,1,1]H[1,1,0,0,0,0,0,0] "
         "+ q^3*H[4,1,1,1]H[1,0,0,0,0,0,0,0] - q^4*H[5,1,1,1]H[0,0,0,0,0,0,0,0]"),
    ]

    @pytest.mark.parametrize("weights,want", CASES)
    def test_str(self, weights, want):
        alpha, beta, gamma = weights
        assert str(relation_instance("bigmove", alpha=alpha, beta=beta, gamma=gamma)) == want


def raw_dual_cauchy(l, k):
    """prod over i < l, j < k of (1 - q y_i z_j) as one (y, z, exponent,
    sign) term per 0/1 matrix, by brute force."""
    out = []
    for bits in itertools.product((0, 1), repeat=l * k):
        rows = [bits[i * k:(i + 1) * k] for i in range(l)]
        y = tuple(sum(r) for r in rows)
        z = tuple(sum(c) for c in zip(*rows)) if rows else (0,) * k
        out.append((y, z, sum(bits), -1 if sum(bits) % 2 else 1))
    return out


def raw_strip_lift(mu, row, nu):
    """The strip lift as a flat list of unstraightened (word, exponent, int)
    terms, term by term from its definition."""
    return [((alpha + (a + sum(nu) - sum(beta),), (b - sum(alpha) + sum(mu),) + beta),
             e, -1 if e % 2 else 1)
            for alpha in vertical_strip_grow(mu) for beta in vertical_strip_shrink(nu)
            for a, b, j in row
            for e in [sum(alpha) - sum(mu) + sum(nu) - sum(beta) + j]]


def raw_bigmove(alpha, beta, gamma):
    """The bigmove relation as a flat list of unstraightened terms."""
    k, l, m = len(alpha), len(beta), len(gamma)
    return ([((alpha + tuple(map(add, beta, y)), tuple(map(sub, gamma, z))), e, n)
             for y, z, e, n in raw_dual_cauchy(l, m)]
            + [((tuple(map(add, alpha, x)), tuple(map(sub, beta, y)) + gamma), e, -n)
               for x, y, e, n in raw_dual_cauchy(k, l)])


class TestRelationGenerators:
    """The generators build the straightened slots of their flat raw
    expansion; one straighten table is shared across each grid, as an
    elimination shares it across its steps."""

    def test_dual_cauchy_rows(self):
        for l, k in itertools.product(range(4), repeat=2):
            want = {}
            for y, z, e, n in raw_dual_cauchy(l, k):
                want[y, z, e] = want.get((y, z, e), 0) + n
            got = {(y, z, e): n for y, e, row in rewrite_module._dual_cauchy(l, k)
                   for z, n in row}
            assert got == want, (l, k)

    def test_bigmove(self):
        # every length triple 1..3; 12 seeded block triples each, entries -1..3
        rng = random.Random(24)
        blocks = {n: list(dominant_weights(n, -1, 3)) for n in range(1, 4)}
        straight = {}
        for k, l, m in itertools.product(range(1, 4), repeat=3):
            for _ in range(12):
                alpha, beta, gamma = (rng.choice(blocks[n]) for n in (k, l, m))
                got = rewrite_module._bigmove_relation(alpha, beta, gamma, straight)
                want = rewrite_module._normalize(raw_bigmove(alpha, beta, gamma), {})
                assert got == want, (alpha, beta, gamma)

    def test_strip_lift(self):
        blocks = [b for n in range(3) for b in dominant_weights(n, -1, 3)]
        rows = ([rewrite_module._com1_row(a, b) for a in range(3) for b in range(3)]
                + [rewrite_module._com2_row(a) for a in range(-1, 3)])
        straight = {}
        for mu, nu in itertools.product(blocks, repeat=2):
            for row in rows:
                got = rewrite_module._strip_lift(mu, row, nu, straight)
                want = rewrite_module._normalize(raw_strip_lift(mu, row, nu), {})
                assert got == want, (mu, row, nu)


class TestRewriteDominant:
    def test_worked_example(self):
        got = rewrite_dominant(((2, 2), (4, 1)))
        want = OpSum({
            ((3, 3), (3, 0)): qp({2: 1, 1: -1}),
            ((4, 2), (2, 1)): qp({2: 1}),
            ((4, 3), (1, 1)): qp({3: -1}),
            ((4, 3), (2, 0)): qp({2: 1, 3: -1}),
            ((4, 4), (1, 0)): qp({4: 1, 3: -1}),
        })
        assert got == want

    def test_already_dominant(self):
        w = ((3, 2), (2, 1))
        assert rewrite_dominant(w) == OpSum({w: QRat.one()})

    def test_adjacent_gap_single_relation(self):
        # head exceeding tail by one resolves through the short relation
        got = rewrite_dominant(((3, 2), (3, 1)))
        assert all(f1[-1] >= f2[0] for (f1, f2) in got.words())
        assert operators_equal(OpSum({((3, 2), (3, 1)): QRat.one()}), got, 5)

    def test_outputs_dominant_and_integral(self):
        rng = random.Random(12)
        for _ in range(8):
            k = rng.randint(1, 2)
            n = rng.randint(1, 2)
            f1 = tuple(sorted((rng.randint(0, 4) for _ in range(k)), reverse=True))
            f2 = tuple(sorted((rng.randint(0, 4) for _ in range(n)), reverse=True))
            got = rewrite_dominant((f1, f2))
            for (g1, g2), c in got.terms():
                assert is_dominant(g1 + g2)
                assert isinstance(c, QPoly) and c.valuation() >= 0

    def test_certificate(self):
        for word in [((2, 2), (4, 1)), ((1,), (3,)), ((2, 1), (3,))]:
            got = rewrite_dominant(word)
            assert operators_equal(OpSum({word: QRat.one()}), got, 5)

    def test_rejects_nondominant_factor(self):
        with pytest.raises(ValueError):
            rewrite_dominant(((1, 2), (1,)))


class TestShiftSupport:
    def test_worked_example(self):
        got = shift_support(((5, 3), (2,)), "left")
        want = OpSum({
            ((5,), (5, 0)): qp({2: 1}),
            ((6,), (4, 0)): qp({3: -1}),
            ((5,), (4, 1)): qp({1: 1}),
            ((6,), (3, 1)): qp({2: -1}),
            ((5,), (3, 2)): QRat.one(),
            ((6,), (2, 2)): qp({1: -1}),
        })
        assert got == want

    def test_length_zero_edge(self):
        got = shift_support(((4,), ()), "left")
        assert got == OpSum({((), (4,)): QRat.one()})

    def test_right_direction(self):
        word = ((2,), (3, 1))
        got = shift_support(word, "right")
        assert all(len(w[0]) == 2 and len(w[1]) == 1 for w in got.words())
        assert operators_equal(OpSum({word: QRat.one()}), got, 5)

    def test_certificates(self):
        for word, direction in [(((5, 3), (2,)), "left"),
                                (((3, 1, 0), (2,)), "left"),
                                (((1,), (2, 1, 0)), "right")]:
            got = shift_support(word, direction)
            assert operators_equal(OpSum({word: QRat.one()}), got, 4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            shift_support(((1,), (1,)), "left")
        with pytest.raises(ValueError):
            shift_support(((2, 1), (1,)), "right")
        with pytest.raises(ValueError):
            shift_support(((2, 1), (1,)), "sideways")


class TestSwapFactors:
    def test_same_width_rectangles(self):
        for a in (0, 1, 2):
            got = swap_factors(((a,), (a, a)))
            assert got == OpSum({((a, a), (a,)): QRat.one()})
            got = swap_factors(((a, a), (a,)))
            assert got == OpSum({((a,), (a, a)): QRat.one()})

    def test_equal_lengths_untouched(self):
        w = ((2, 1), (2, 0))
        assert swap_factors(w) == OpSum({w: QRat.one()})

    def test_lengths_and_certificate(self):
        for word in [((2, 1), (2,)), ((1,), (2, 1)), ((3, 1), (1,)),
                     ((2,), (2, 1, 1))]:
            got = swap_factors(word)
            p, r = len(word[0]), len(word[1])
            assert all((len(w[0]), len(w[1])) == (r, p) for w in got.words())
            assert operators_equal(OpSum({word: QRat.one()}), got, 4)

    def test_double_swap_roundtrip(self):
        for word in [((2, 1), (1,)), ((1,), (1, 1))]:
            once = swap_factors(word)
            back = OpSum()
            for w, c in once.terms():
                back = back + swap_factors(w).scale(c)
            assert operators_equal(OpSum({word: QRat.one()}), back, 4)


class TestOpSumRendering:
    def test_str(self):
        s = OpSum({((3, 3), (3, 0)): qp({2: 1, 1: -1}),
                   ((4, 3), (1, 1)): qp({3: -1})})
        assert str(s) == "(q^2-q)*H[3,3]H[3,0] - q^3*H[4,3]H[1,1]"
        assert str(OpSum()) == "0"

    def test_json(self):
        s = OpSum({((2,), (1,)): Q})
        assert s.to_json() == {
            "terms": [{"word": [[2], [1]], "coeff": {"num": {"1": 1},
                                                     "den": {"0": 1}}}]}

    def test_coefficients_are_laurent_polynomials(self):
        s = OpSum({((2,), (1,)): Q, ((1,), (1,)): 3})
        coeffs = [s.coeff(((2,), (1,))), s.coeff(((3,), (1,))),
                  s.scale(Q).coeff(((1,), (1,)))] + [c for _, c in s.terms()]
        assert all(isinstance(c, QPoly) for c in coeffs)
        assert coeffs[:3] == [QPoly.q(), QPoly.zero(), QPoly({1: 3})]

    def test_denominator_is_refused(self):
        c = QRat(1, QPoly.one() - QPoly.q())
        w = ((2,), (1,))
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            OpSum({w: c})
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            normalize({w: c})
        with pytest.raises(ValueError, match="not a Laurent polynomial"):
            OpSum({w: 1}).scale(c)

    @pytest.mark.parametrize("other", [1, QRat.one(), "H[1]"], ids=["int", "QRat", "str"])
    def test_arithmetic_with_a_non_opsum_is_a_type_error(self, other):
        s = OpSum({((2,), (1,)): Q})
        with pytest.raises(TypeError):
            s + other
        with pytest.raises(TypeError):
            s - other


# name -> (rewriter, a word it must rewrite, a word it would finish on)
GUARDED = {
    "rewrite_dominant": (rewrite_dominant, ((1,), (3,)), ((3,), (1,))),
    "shift_support": (lambda w: shift_support(w, "left"), ((3, 1), (2,)), ((3,), (1, 1))),
    "swap_factors": (swap_factors, ((2, 1), (3,)), ((3,), (2, 1))),
}


# name -> the relation generator the rewriter solves
RELATION_OF = {
    "rewrite_dominant": "_strip_relation",
    "shift_support": "_bigmove_relation",
    "swap_factors": "_bigmove_relation",
}

# name -> an unfinished word with the factor lengths and the measure of the
# rewriter's GUARDED input
TWIN_OF = {
    "rewrite_dominant": ((2,), (4,)),
    "shift_support": ((4, 0), (2,)),
    "swap_factors": ((3, 0), (3,)),
}


class TestDriverGuards:
    """The shared worklist's guards, reached by sabotaging its inputs."""

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_pivot_must_be_a_unit(self, monkeypatch, name):
        # twice a relation is still zero, but its pivot 2*q^j has no
        # inverse in Z[q, 1/q]; the generators return Z[q] slots
        # {word: {exponent: int}}
        fn, word, _ = GUARDED[name]
        orig = getattr(rewrite_module, RELATION_OF[name])
        monkeypatch.setattr(rewrite_module, RELATION_OF[name],
                            lambda *args: {w: {e: 2 * n for e, n in slot.items()}
                                           for w, slot in orig(*args).items()})
        message = f"^pivot .* at {re.escape(format_word(word))} is not a unit$"
        with pytest.raises(RuntimeError, match=message):
            fn(word)

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_step_budget(self, monkeypatch, name):
        fn, word, _ = GUARDED[name]
        monkeypatch.setattr(rewrite_module, "_MAX_STEPS", 0)
        with pytest.raises(RuntimeError, match=f"^{name} exceeded the step budget$"):
            fn(word)

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_measure_must_move(self, monkeypatch, name):
        # solving for the input word hands back its twin, another unfinished
        # word of the same factor lengths and the same measure
        fn, word, _ = GUARDED[name]
        twin = TWIN_OF[name]
        monkeypatch.setattr(rewrite_module, RELATION_OF[name],
                            lambda *args: {word: {0: 1}, twin: {0: 1}})
        message = f"termination measure failed to increase at {format_word(twin)}"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            fn(word)

    @pytest.mark.parametrize("name", ["shift_support", "swap_factors"])
    def test_unexpected_factor_lengths(self, monkeypatch, name):
        fn, word, _ = GUARDED[name]
        monkeypatch.setattr(rewrite_module, RELATION_OF[name],
                            lambda *args: {word: {0: 1}, ((1, 0, 0), ()): {0: 1}})
        with pytest.raises(RuntimeError, match=r"^unexpected factor lengths \(3, 0\)$"):
            fn(word)

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_result_must_be_integral(self, monkeypatch, name):
        # word == q^-1 * end, so end collects q^-1
        fn, word, end = GUARDED[name]
        c = QPoly({-1: 1})
        monkeypatch.setattr(rewrite_module, RELATION_OF[name],
                            lambda *args: {word: {0: 1}, end: {-1: -1}})
        message = (f"{name} produced a non-polynomial coefficient {c} "
                   f"at {format_word(end)}")
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            fn(word)

    def test_repeat_occurrence_must_move(self):
        # toy words under a measure that is not injective: eliminating A
        # queues B and C at measure 1, and the relation solved for B names C
        # again, which is queued at the measure being eliminated
        A, B, C, D, END = (((x,), (0,)) for x in range(5))
        measure = {A: 0, B: 1, C: 1, D: 2}.get
        relations = {A: {A: {0: 1}, B: {0: 1}, C: {1: 1}},
                     B: {B: {0: 1}, C: {0: 1}},
                     C: {C: {0: -1}, END: {0: 1}},
                     D: {D: {0: 1}, END: {2: -1}}}

        def run():
            return rewrite_module._eliminate(A, "toy", lambda w, straight: relations[w],
                                             lambda w: w == END, measure)

        message = f"termination measure failed to increase at {format_word(C)}"
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            run()
        # a repeat of a queued word above the current measure is accepted:
        # A = -B - qC, B = -D, C = END + D and D = q^2 END
        relations[B] = {B: {0: 1}, D: {0: 1}}
        relations[C] = {C: {0: -1}, END: {0: 1}, D: {0: 1}}
        assert run() == OpSum({END: QPoly({1: -1, 2: 1, 3: -1})})


class TestNonIntegerEntries:
    """A word entry that is not an integer is refused, never truncated."""

    @pytest.mark.parametrize("entry", [1.5, 2.7, "3", None])
    def test_opsum_and_normalize(self, entry):
        word = ((entry,), (1,))
        message = f"^word entry {re.escape(repr(entry))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            OpSum({word: 1})
        with pytest.raises(ValueError, match=message):
            normalize({word: 1})
        with pytest.raises(ValueError, match=message):
            OpSum({((2,), (1,)): 1}).coeff(word)

    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_rewriters(self, name):
        fn, word, _ = GUARDED[name]
        head = word[0][0] + 0.9
        bad = ((head,) + word[0][1:], word[1])
        with pytest.raises(ValueError, match=f"^word entry {head!r} is not an integer$"):
            fn(bad)

    def test_relation_instance(self):
        with pytest.raises(ValueError, match="is not an integer$"):
            relation_instance("com2", mu=(2,), a=2.5, nu=(1,))

    @pytest.mark.parametrize("kind,params", [
        ("com1", dict(mu=(2.5,), a=1, b=3, nu=(1,))),
        ("com2", dict(mu=(2,), a=1, nu=(1.0,))),
        ("bigmove", dict(alpha=(1.5,), beta=(1,), gamma=(0,))),
        ("one-more", dict(a=1.5, k=2)),
    ])
    def test_relation_instance_weights(self, kind, params):
        with pytest.raises(ValueError, match="^word entry .* is not an integer$"):
            relation_instance(kind, **params)


class TestRewriteWork:
    """Machine-independent work on three fixed words: straighten calls
    through this module's binding, relations built (one per step), the
    order in which they are built, and QPoly objects built."""

    CASES = [
        # rewriter, its arguments, relations built, straighten calls are below
        ("swap_factors", (((6, 4), (9, 7, 5, 2)),), 81, 850),
        ("rewrite_dominant", (((5, 3, 1), (9, 8)),), 92, 400),
        ("shift_support", (((7, 2, 1), (9, 6, 6, 3)), "right"), 37, 360),
    ]

    # the relation generators' calls, name and arguments, over all three
    # cases in order; recorded while every elimination took the word with
    # the smallest (measure, word) off its heap
    STEP_ORDER_SHA256 = "7590106e52ad4c41c336bc4c728c59119e9862d49269abdb0ea20eebc8fee1bc"
    # the same calls sorted: which relations are built does not depend on
    # how ties between words of equal measure are broken
    STEP_SET_SHA256 = "5c7981772432ff9fc16993350f709ae297e0b707270730d7c5ccc8cb1906fdc8"

    @staticmethod
    def run(name, args):
        return getattr(rewrite_module, name)(*args)

    @pytest.mark.parametrize("name,args,relations,straightens", CASES,
                             ids=[c[0] for c in CASES])
    def test_each_block_straightened_once_per_call(self, monkeypatch, name, args,
                                                   relations, straightens):
        counts = {"straighten": 0, "relations": 0}

        def counting(fn, key):
            def wrapped(*args):
                counts[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(rewrite_module, "straighten",
                            counting(rewrite_module.straighten, "straighten"))
        for gen in ("_strip_lift", "_bigmove_relation"):
            monkeypatch.setattr(rewrite_module, gen,
                                counting(getattr(rewrite_module, gen), "relations"))
        assert not self.run(name, args).is_zero()
        assert counts["relations"] == relations
        # 808, 338 and 340: one straighten per distinct block per call
        assert counts["straighten"] < straightens

    def test_step_order(self, monkeypatch):
        calls = []

        def recording(gen):
            fn = getattr(rewrite_module, gen)

            def wrapped(*args):
                # the trailing argument is the elimination's straighten table
                calls.append(f"{gen}{args[:-1]!r}")
                return fn(*args)
            return wrapped

        for gen in ("_strip_lift", "_bigmove_relation"):
            monkeypatch.setattr(rewrite_module, gen, recording(gen))
        for name, args, _, _ in self.CASES:
            self.run(name, args)
        assert len(calls) == 81 + 92 + 37
        assert hashlib.sha256("\n".join(calls).encode()).hexdigest() == \
            self.STEP_ORDER_SHA256
        assert hashlib.sha256("\n".join(sorted(calls)).encode()).hexdigest() == \
            self.STEP_SET_SHA256

    def test_qpoly_objects_per_output_term(self):
        # counted in a child interpreter: a QPoly.__new__ patched on the
        # class cannot be taken off again without breaking QPoly(...)
        script = f"""
import json
import hlvertex.rewrite as rw
from hlvertex.coeffs import QPoly
from hlvertex.memo import clear_caches

built = 0

def counting_new(cls, *args):
    global built
    built += 1
    return object.__new__(cls)

QPoly.__new__ = counting_new
out = []
for name, args in {[(name, args) for name, args, _, _ in self.CASES]!r}:
    clear_caches()
    built = 0
    terms = len(getattr(rw, name)(*args).terms())
    out.append((name, built, terms))
print(json.dumps(out))
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=source_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        for name, built, terms in json.loads(proc.stdout):
            # 335, 142 and 151 output terms
            assert terms > 100 and built <= terms + 16, (name, built, terms)


GOLDEN_REWRITE_SHA256 = "ac103a8b4f904576b0c572c1324431c6db92308be96cabe8eb159064cb544e6e"


class TestRewriteGolden:
    """Every rewriter on every ordered pair of blocks from
    dominant_weights(n, -1, 2), n = 1..3: one name, word and JSON output
    (or error) line per case, recorded before the eliminations shared a
    straighten table."""

    def test_rewriter_digest(self):
        rewriters = [("rewrite_dominant", rewrite_dominant),
                     ("shift_support_left", lambda w: shift_support(w, "left")),
                     ("shift_support_right", lambda w: shift_support(w, "right")),
                     ("swap_factors", swap_factors)]
        blocks = [b for n in range(1, 4) for b in dominant_weights(n, -1, 2)]
        h = hashlib.sha256()
        cases = 0
        for word in itertools.product(blocks, repeat=2):
            for name, fn in rewriters:
                try:
                    out = json.dumps(fn(word).to_json(), sort_keys=True)
                except Exception as exc:  # errors are pinned as outputs too
                    out = f"{type(exc).__name__}: {exc}"
                h.update(f"{name}\t{format_word(word)}\t{out}\n".encode())
                cases += 1
        assert cases == 4624
        assert h.hexdigest() == GOLDEN_REWRITE_SHA256


GOLDEN_BENCH_REWRITE_SHA256 = "1bea16bab6392caecdb0f91a4b09db1c4d9534ab943cb02e13b4429abe2fec5a"


class TestRewriteBenchGolden:
    """Every rewriter that accepts each word of a seeded grid at the
    rewrite bench's scale: eight words for each pair of factor lengths
    1-4, entries 0-9, keeping rewrite_dominant's cost score (gap times
    total length, as the bench bands it) at most 27; one name, word and
    JSON output line per case, recorded while the eliminations ran on
    QPoly coefficients."""

    def test_rewriter_digest(self):
        rng = random.Random(3)

        def block(n):
            return tuple(sorted((rng.randint(0, 9) for _ in range(n)), reverse=True))

        h = hashlib.sha256()
        cases = 0
        for p, r in itertools.product(range(1, 5), repeat=2):
            for _ in range(8):
                word = (block(p), block(r))
                while max(0, word[1][0] - word[0][-1]) * (p + r) > 27:
                    word = (block(p), block(r))
                runs = [("rewrite_dominant", rewrite_dominant),
                        ("swap_factors", swap_factors)]
                if p != r:
                    side = "left" if p > r else "right"
                    runs.append((f"shift_support_{side}",
                                 lambda w, side=side: shift_support(w, side)))
                for name, fn in runs:
                    out = json.dumps(fn(word).to_json(), sort_keys=True)
                    h.update(f"{name}\t{format_word(word)}\t{out}\n".encode())
                    cases += 1
        assert cases == 352
        assert h.hexdigest() == GOLDEN_BENCH_REWRITE_SHA256
